package secemb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// surfaceAllow lists the exported names that deliberately have no non-test
// mention besides their declaration, each with the reason it stays.
var surfaceAllow = map[string]string{
	// Test levers: tests drive or read the system through them.
	"ForceSwap": "planner: whole-table ForceSwapShard, the swap tests' lever",
	"Swaps":     "planner.Swappable: install count the swap tests assert on",
	"Draining":  "wire.Server: drain-state probe for the drain tests",
	"Buckets":   "obs.Histogram: bucket counts, read by the bucket-boundary test",
	// The paper's Algorithm 2 for the §IV-D threshold: run from tests and
	// docs; core.NewDual's threshold is what it yields.
	"ProfileLLM": "profile: LLM technique profile",
	"BestSecure": "profile.LLMResult: per-batch winner of ProfileLLM",
	// Oracles other packages' tests import (so they cannot live in _test.go).
	"ChiSquareUniform":     "memtrace: statistic of oram's leaf-uniformity tests",
	"ChiSquareCritical999": "memtrace: critical value for the same tests",
	"ReadTrace":            "memtrace: reader of Trace.WriteTo's format, FuzzReadTrace's round-trip oracle",
	// Reached by nothing but the test named: kept only so that test keeps
	// passing; delete the pair together.
	"FootprintRatio": "core: TestFootprintRatioNaNOnEmpty",
	"TotalVariation": "memtrace: TestTotalVariation",
}

// TestExportedSurfaceIsReached: every exported func or method the serving
// packages declare is mentioned in non-test code somewhere besides its own
// declaration (by name — go/parser only, so a shared method name counts).
// Surface only its own tests reach is code nothing audits or measures:
// delete it or, for a deliberate test lever, allowlist it above.
func TestExportedSurfaceIsReached(t *testing.T) {
	audited := map[string]bool{}
	for _, pkg := range []string{"core", "serving", "serving/backends", "planner", "profile", "wire", "memtrace", "obs"} {
		audited[filepath.Join("internal", pkg)] = true
	}
	fset := token.NewFileSet()
	mentions := map[string]int{} // identifier → occurrences in non-test files
	var exported [][2]string     // (file, name) of every audited exported func
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mentions[id.Name]++
				}
				return true
			})
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && audited[filepath.Dir(path)] && fn.Name.IsExported() {
					exported = append(exported, [2]string{path, fn.Name.Name})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for _, e := range exported {
		if mentions[e[1]] == 1 && surfaceAllow[e[1]] == "" { // 1: the declaration itself
			dead = append(dead, e[0]+": "+e[1])
		}
	}
	if len(dead) > 0 {
		t.Fatalf("exported names no other non-test file mentions:\n  %s", strings.Join(dead, "\n  "))
	}
}
