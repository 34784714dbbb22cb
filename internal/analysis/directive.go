package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive syntax (doc comments on function declarations or interface
// methods):
//
//	// secemb:secret ids          — listed parameters carry secrets
//	// secemb:secret index return — "return" marks tainted return values
//	// secemb:sink                — sanctioned oblivious sink: tainted
//	//                              arguments are allowed into any parameter
//	// secemb:audit path circuit  — names this function must carry in the
//	//                              dynamic leakcheck roster
//
// Waivers suppress a specific rule on the same or the following line:
//
//	//lint:allow obliviouslint/branch rationale for why this is safe
const (
	secretDirective = "secemb:secret"
	sinkDirective   = "secemb:sink"
	auditDirective  = "secemb:audit"
	allowDirective  = "lint:allow"
)

// FuncDirective is the parsed annotation set of one function.
type FuncDirective struct {
	Key    string          // qualified name: pkgpath.[Recv.]Name
	Secret map[string]bool // parameter names carrying secrets
	Return bool            // return values are tainted
	Sink   bool            // sanctioned sink
	Audit  []string        // dynamic-audit roster names
	Pos    token.Position
}

// Index is the module-wide directive table, keyed by qualified function
// name (see FuncKey).
type Index struct {
	funcs map[string]*FuncDirective
}

// NewIndex returns an empty directive index.
func NewIndex() *Index { return &Index{funcs: map[string]*FuncDirective{}} }

// Lookup returns the directive for a resolved function object, or nil.
func (ix *Index) Lookup(fn *types.Func) *FuncDirective {
	if fn == nil {
		return nil
	}
	key := FuncKey(fn)
	if key == "" {
		return nil
	}
	return ix.funcs[key]
}

// All returns every directive, sorted by key (for reports and the
// leakcheck roster sync).
func (ix *Index) All() []*FuncDirective {
	out := make([]*FuncDirective, 0, len(ix.funcs))
	for _, d := range ix.funcs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FuncKey builds the index key for a function object: pkgpath.Name, or
// pkgpath.RecvType.Name for methods (pointer receivers are stripped;
// interface methods use the interface type's name).
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return "" // universe scope (error.Error)
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// CollectDirectives scans a package's syntax for secemb directives and
// merges them into the index. It returns malformed-directive errors
// (unknown parameter names, empty directives) as diagnostics so they fail
// the lint run rather than being silently ignored.
func CollectDirectives(ix *Index, pkg *Package) []Diagnostic {
	var bad []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) > 0 {
					recv = recvTypeName(d.Recv.List[0].Type)
				}
				key := joinKey(pkg.Path, recv, d.Name.Name)
				bad = append(bad, parseFuncDirectives(ix, pkg.Fset, key, d.Doc, fieldNames(d.Type.Params))...)
				return true
			case *ast.TypeSpec:
				iface, ok := d.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, m := range iface.Methods.List {
					ft, isFunc := m.Type.(*ast.FuncType)
					if !isFunc || len(m.Names) == 0 {
						continue // embedded interface
					}
					key := joinKey(pkg.Path, d.Name.Name, m.Names[0].Name)
					bad = append(bad, parseFuncDirectives(ix, pkg.Fset, key, m.Doc, fieldNames(ft.Params))...)
				}
				return true
			}
			return true
		})
	}
	return bad
}

func joinKey(pkgPath, recv, name string) string {
	if recv != "" {
		return pkgPath + "." + recv + "." + name
	}
	return pkgPath + "." + name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

func fieldNames(fl *ast.FieldList) map[string]bool {
	names := map[string]bool{}
	if fl == nil {
		return names
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			names[n.Name] = true
		}
	}
	return names
}

func parseFuncDirectives(ix *Index, fset *token.FileSet, key string, doc *ast.CommentGroup, params map[string]bool) []Diagnostic {
	if doc == nil {
		return nil
	}
	var bad []Diagnostic
	get := func(pos token.Pos) *FuncDirective {
		d := ix.funcs[key]
		if d == nil {
			d = &FuncDirective{Key: key, Secret: map[string]bool{}, Pos: fset.Position(pos)}
			ix.funcs[key] = d
		}
		return d
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case secretDirective:
			if len(fields) == 1 {
				bad = append(bad, badDirective(fset, c.Pos(), "secemb:secret needs parameter names (or \"return\")"))
				continue
			}
			d := get(c.Pos())
			for _, name := range fields[1:] {
				if name == "return" {
					d.Return = true
					continue
				}
				if !params[name] {
					bad = append(bad, badDirective(fset, c.Pos(), "secemb:secret names unknown parameter %q of %s", name, key))
					continue
				}
				d.Secret[name] = true
			}
		case sinkDirective:
			get(c.Pos()).Sink = true
		case auditDirective:
			if len(fields) == 1 {
				bad = append(bad, badDirective(fset, c.Pos(), "secemb:audit needs at least one roster name"))
				continue
			}
			d := get(c.Pos())
			d.Audit = append(d.Audit, fields[1:]...)
		}
	}
	return bad
}

func badDirective(fset *token.FileSet, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     fset.Position(pos),
		Rule:    "obliviouslint/directive",
		Message: fmt.Sprintf(format, args...),
	}
}

// --- waivers -------------------------------------------------------------

// waiverSet maps (file, line, rule) → rationale. A waiver on line L
// suppresses matching findings on L and L+1, so it can sit either trailing
// the offending statement or on its own line above. records keeps every
// waiver with its source position so the stale-waiver pass can report the
// ones a run never consumed.
type waiverSet struct {
	byLine  map[string]map[int]map[string]string
	records []waiverRec
}

// waiverRec is one //lint:allow comment, by position.
type waiverRec struct {
	pos       token.Position
	rule      string
	rationale string
}

// merge folds another set's waivers into ws (used to build the
// module-wide set RunProgram resolves against).
func (ws *waiverSet) merge(other *waiverSet) {
	for file, lines := range other.byLine {
		if ws.byLine[file] == nil {
			ws.byLine[file] = map[int]map[string]string{}
		}
		for line, rules := range lines {
			if ws.byLine[file][line] == nil {
				ws.byLine[file][line] = map[string]string{}
			}
			for rule, rationale := range rules {
				ws.byLine[file][line][rule] = rationale
			}
		}
	}
	ws.records = append(ws.records, other.records...)
}

func collectWaivers(fset *token.FileSet, files []*ast.File) *waiverSet {
	ws := &waiverSet{byLine: map[string]map[int]map[string]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				parts := strings.SplitN(rest, " ", 2)
				if len(parts) < 2 || strings.TrimSpace(parts[1]) == "" {
					continue // a waiver without a rationale does not waive
				}
				rule, rationale := parts[0], strings.TrimSpace(parts[1])
				pos := fset.Position(c.Pos())
				lines := ws.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]string{}
					ws.byLine[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = map[string]string{}
				}
				lines[pos.Line][rule] = rationale
				ws.records = append(ws.records, waiverRec{pos: pos, rule: rule, rationale: rationale})
			}
		}
	}
	return ws
}

// match resolves a diagnostic position against the set and reports the
// rationale and the waiver's own line (so callers can mark it consumed).
func (ws *waiverSet) match(pos token.Position, rule string) (string, int, bool) {
	lines := ws.byLine[pos.Filename]
	if lines == nil {
		return "", 0, false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if rules := lines[line]; rules != nil {
			if r, ok := rules[rule]; ok {
				return r, line, true
			}
		}
	}
	return "", 0, false
}
