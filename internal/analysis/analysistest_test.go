package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lintFixture loads testdata/src/<name> through LoadModule, the loader
// every audit uses, as the only target (its imports are the real module
// packages and the real standard library), and runs the analyzers on it.
// `go list ./...` skips testdata, so only the explicit path reaches it.
func lintFixture(t *testing.T, name string, analyzers ...*Analyzer) (*ModuleSet, *Result) {
	t.Helper()
	set, err := LoadModule(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	res, err := RunProgram(analyzers, set.Program())
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", name, err)
	}
	return set, res
}

// RunFixture lints testdata/src/<name> (the analysistest convention) and
// compares the unwaived findings against `// want "regexp"` comments:
// every finding must be expected on its line and every expectation must
// be matched. Waived findings never match a want — a fixture exercising
// //lint:allow expects silence.
func RunFixture(t *testing.T, name string, analyzers ...*Analyzer) *Result {
	t.Helper()
	set, res := lintFixture(t, name, analyzers...)
	pkg := set.Targets[0]
	wants := collectWants(t, pkg.Fset, pkg.Files)
	for _, d := range res.Findings {
		if !wants.match(d) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
	}
	return res
}

type wantExpectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ list []*wantExpectation }

// collectWants parses `// want "re" "re"…` comments; an expectation applies
// to the line its comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					}
					pat, _ := strconv.Unquote(q)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					ws.list = append(ws.list, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return ws
}

func (ws *wantSet) match(d Diagnostic) bool {
	full := fmt.Sprintf("%s: %s", d.Rule, d.Message)
	for _, w := range ws.list {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(full) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*wantExpectation {
	var out []*wantExpectation
	for _, w := range ws.list {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}
