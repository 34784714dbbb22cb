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

// surfaceAllow lists the functions and methods that deliberately have no
// non-test mention besides their declaration, keyed "pkg.Name" (pkg is the
// directory under internal/), each with the reason it stays.
var surfaceAllow = map[string]string{
	// Test levers: tests drive or read the system through them.
	"planner.ForceSwap": "whole-table ForceSwapShard, the swap tests' lever",
	"planner.Swaps":     "Swappable's install count the swap tests assert on",
	"wire.Draining":     "Server's drain-state probe for the drain tests",
	"obs.Buckets":       "Histogram's bucket counts, read by the bucket-boundary test",
	// The paper's Algorithm 2 for the §IV-D threshold: run from tests and
	// docs; core.NewDual's threshold is what it yields.
	"profile.ProfileLLM": "LLM technique profile",
	"profile.BestSecure": "ProfileLLM's per-batch winner",
	// Read by another package's tests (so they cannot live in _test.go).
	"memtrace.ChiSquareUniform":     "oram's leaf-uniformity tests",
	"memtrace.ChiSquareCritical999": "oram's leaf-uniformity tests",
	"oram.TreeLevels":               "perf's tests check MemWords against it",
	"analysis.ValidateSARIF":        "cmd/obliviouslint's tests validate the SARIF output with it",
	// The reading half of Trace.WriteTo's export format (DESIGN §6).
	"memtrace.ReadTrace": "trace import for offline diffing; FuzzReadTrace's round-trip oracle",
	// Interface implementations the compiler, not a call, reaches.
	"analysis.Import": "dirLoader implements types.Importer",
}

// TestExportedSurfaceIsReached: every function and method declared under
// internal/ is mentioned in non-test code somewhere besides its own
// declaration (by name — go/parser only, so a shared method name counts).
// An exported name may be mentioned anywhere in the tree; an unexported
// one only in its own package's non-test files. Code that only its own
// tests reach is code nothing audits or measures: delete it, move a test
// reference into a _test.go file, or allowlist it above with its reader.
func TestExportedSurfaceIsReached(t *testing.T) {
	type decl struct{ file, pkg, name string }
	fset := token.NewFileSet()
	mentions := map[string]int{}         // identifier → occurrences in non-test files
	local := map[string]map[string]int{} // package dir → identifier → occurrences there
	var decls []decl                     // every function and method declared under internal/
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			if local[dir] == nil {
				local[dir] = map[string]int{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mentions[id.Name]++
					local[dir][id.Name]++
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			pkg := filepath.ToSlash(strings.TrimPrefix(dir, "internal"+string(filepath.Separator)))
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name != "init" && fn.Name.Name != "main" && fn.Name.Name != "_" {
					decls = append(decls, decl{path, pkg, fn.Name.Name})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		n := mentions[d.name]
		if !token.IsExported(d.name) {
			n = local[filepath.Dir(d.file)][d.name]
		}
		if n > 1 { // 1: the declaration itself
			continue
		}
		if key := d.pkg + "." + d.name; surfaceAllow[key] != "" {
			allowed[key] = true
		} else {
			dead = append(dead, d.file+": "+d.name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("functions no other non-test mention reaches:\n  %s", strings.Join(dead, "\n  "))
	}
	for key := range surfaceAllow {
		if !allowed[key] {
			t.Errorf("surfaceAllow[%q]: reached after all (or gone); drop the entry", key)
		}
	}
}
