// Package analysis is a static taint checker that proves secret-independence
// of the repository's oblivious code paths at compile time — the static
// counterpart of the dynamic trace-equivalence audit in internal/leakcheck.
//
// The dynamic audit replays a 9-input adversarial panel and compares memory
// traces; it can only ever witness leaks its panel happens to trigger. The
// checker in this package instead machine-checks the paper's construction
// argument ("the access pattern is input-independent by construction") for
// *all* inputs at once: functions whose parameters carry secrets (lookup
// indices, ORAM leaf labels, stash metadata) declare so with a
// `// secemb:secret <param>` doc directive, and the obliviouslint analyzer
// propagates taint from those parameters through assignments, calls and
// returns, reporting every place a tainted value influences control flow or
// an address:
//
//   - branch  — `if`/`switch`/`select` conditions on tainted values
//   - index   — slice/array/map indexing (or slice bounds) by a tainted
//     expression
//   - loop    — tainted loop bounds
//   - call    — tainted arguments escaping into unannotated (hence
//     unaudited) functions, or into non-secret parameters of annotated ones
//   - declass — tainted values returned from functions not annotated
//     `secemb:secret return`
//   - asm     — hand-written assembly that branches on, addresses with or
//     leaks into a general-purpose register a secret its Go declaration
//     names (asm.go)
//
// The branchless primitives of internal/oblivious (Select64, CondCopy, …)
// are the sanctioned sinks: calls into that package (and into the pure
// arithmetic of math and math/bits) accept tainted operands freely, and
// their results stay tainted. Residual findings that are safe under the
// declared threat model (abort-on-invariant panics, protocol-sanctioned
// declassifications such as an ORAM's fresh-leaf remap) are waived in place
// with a reviewed `//lint:allow <rule> <rationale>` comment.
//
// The package is deliberately self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, analysistest-style
// fixtures) but is built only on the standard library's go/ast, go/types
// and go/importer, so the module keeps zero third-party dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check, in the style of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	// Rules lists every rule identifier this analyzer can emit. The
	// stale-waiver pass uses it to decide which //lint:allow waivers a run
	// could have consumed: a waiver naming an active rule that suppressed
	// nothing is itself reported.
	Rules []string
	Run   func(*Pass) error
	// Finish, if non-nil, runs once after every per-package pass with the
	// whole-program view — for cross-package rules (annotation drift) that
	// need the union of all root walks.
	Finish func(*Program, func(Diagnostic)) error
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	asmFiles []string // paths of the .s files the host build compiles
}

// Pass carries one (Analyzer, Package) unit of work.
type Pass struct {
	Analyzer   *Analyzer
	Pkg        *Package
	Prog       *Program // whole-program view (call graph + summaries)
	Directives *Index   // module-wide directive index (may cover more than Pkg)

	report func(Diagnostic)
}

// Reportf records a finding. rule is the waivable identifier
// ("obliviouslint/branch", "vet/shadow", …).
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position `json:"pos"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	Waived  bool           `json:"waived,omitempty"`
	Waiver  string         `json:"waiver,omitempty"` // rationale from //lint:allow
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	if d.Waived {
		s += fmt.Sprintf(" (waived: %s)", d.Waiver)
	}
	return s
}

// Result aggregates the diagnostics of a run, split by waiver status.
type Result struct {
	Findings []Diagnostic `json:"findings"` // unwaived — these fail the build
	Waived   []Diagnostic `json:"waived"`   // suppressed by //lint:allow
}

// RunProgram applies every analyzer to the program's target packages,
// resolving waivers against the //lint:allow comments of the whole
// program (inherited findings land at callee positions, which may be in
// non-target packages). Identical diagnostics reached through different
// audit roots are deduplicated. After all passes, waivers in target
// packages that name an active rule but suppressed nothing are reported
// as stale (obliviouslint/directive): the interprocedural engine has
// proved them unnecessary, and an unnecessary waiver is a hole the next
// refactor can leak through.
func RunProgram(analyzers []*Analyzer, prog *Program) (*Result, error) {
	res := &Result{}
	waivers := &waiverSet{byLine: map[string]map[int]map[string]string{}}
	for _, pkg := range prog.All {
		waivers.merge(collectWaivers(pkg.Fset, pkg.Files))
	}
	used := map[string]bool{} // file\x00line\x00rule of consumed waivers
	seen := map[string]bool{} // diagKey dedup across roots
	resolve := func(d Diagnostic) {
		key := diagKey(d)
		if seen[key] {
			return
		}
		seen[key] = true
		if rationale, line, ok := waivers.match(d.Pos, d.Rule); ok {
			used[waiverUseKey(d.Pos.Filename, line, d.Rule)] = true
			d.Waived, d.Waiver = true, rationale
			res.Waived = append(res.Waived, d)
		} else {
			res.Findings = append(res.Findings, d)
		}
	}
	for _, pkg := range prog.Targets {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, Directives: prog.Directives, report: resolve}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(prog, resolve); err != nil {
			return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
		}
	}

	active := map[string]bool{}
	for _, a := range analyzers {
		for _, r := range a.Rules {
			active[r] = true
		}
	}
	targetFiles := map[string]bool{}
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Files {
			targetFiles[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	for _, w := range waivers.records {
		if !active[w.rule] || !targetFiles[w.pos.Filename] {
			continue
		}
		if used[waiverUseKey(w.pos.Filename, w.pos.Line, w.rule)] {
			continue
		}
		resolve(Diagnostic{
			Pos:  w.pos,
			Rule: RuleDirective,
			Message: fmt.Sprintf("stale waiver: //lint:allow %s suppresses nothing here — delete it (rationale was: %s)",
				w.rule, w.rationale),
		})
	}
	sortDiags(res.Findings)
	sortDiags(res.Waived)
	return res, nil
}

func waiverUseKey(file string, line int, rule string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", file, line, rule)
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
