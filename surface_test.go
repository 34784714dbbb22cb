package secemb

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"secemb/internal/analysis"
)

// surfaceAllow lists the declarations under internal/ that deliberately
// have no non-test use, keyed "pkg.Name" or "pkg.Type.Method" (pkg is the
// directory under internal/), each with the reason it stays.
var surfaceAllow = map[string]string{
	// Test levers: tests drive or read the system through them.
	"planner.Planner.ForceSwap": "whole-table ForceSwapShard, the swap tests' lever",
	"planner.Swappable.Swaps":   "Swappable's install count the swap tests assert on",
	"wire.Server.Draining":      "Server's drain-state probe for the drain tests",
	"obs.Histogram.Buckets":     "Histogram's bucket counts, read by the bucket-boundary test",
	// The paper's Algorithm 2 for the §IV-D threshold: run from tests and
	// docs; core.NewDual's threshold is what it yields.
	"profile.ProfileLLM":           "LLM technique profile",
	"profile.LLMResult.BestSecure": "ProfileLLM's per-batch winner",
	// Read by another package's tests (so they cannot live in _test.go).
	"memtrace.ChiSquareUniform":     "oram's leaf-uniformity tests",
	"memtrace.ChiSquareCritical999": "oram's leaf-uniformity tests",
	"oram.Controller.TreeLevels":    "perf's tests check MemWords against it",
	"analysis.ValidateSARIF":        "cmd/obliviouslint's tests validate the SARIF output with it",
	"cli.Sweep":                     "every command's TestBadFlagsExitTwo sweeps its flags with it",
	// A primitive whose last caller went.
	"oblivious.Lt": "the branchless unsigned compare FuzzEqLt pins beside Eq; hashenc's reduction now uses a shorter masked subtract valid for its range",
}

// TestExportedSurfaceIsReached: every package-level func, method, type,
// const and var declared under internal/ is used — as that object, resolved
// by go/types, not by a shared name — in a non-test file of this module or
// of bench/. A use inside the declaration itself (recursion, a
// self-referential type) and a type named as its own methods' receiver do
// not count. A method nothing names is still reached when a reached type's
// method set (promoted methods included) satisfies an interface whose
// method some code calls, or when it is String() string, Error() string or
// Unwrap() error. Code that only its own tests reach is code nothing
// audits or measures: delete it, move it into a _test.go file, or
// allowlist it above with its reader.
func TestExportedSurfaceIsReached(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range []string{".", "bench"} {
		set, err := analysis.LoadModule(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, set.All...)
	}

	// The two loads, and each package's view of its imports through
	// export data, yield distinct objects for one declaration, so objects
	// are compared by key.
	used := map[string]bool{}
	type ifaceCall struct {
		method string   // the called method, name+signature
		set    []string // its interface's method set, name+signature
	}
	called := map[string]ifaceCall{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				self, skip := declKeys(pkg, d)
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || skip[id] {
						return true
					}
					obj := pkg.Info.Uses[id]
					if k := objKey(obj); k != "" && !self[k] {
						used[k] = true
					}
					if fn, ok := obj.(*types.Func); ok {
						if it := recvInterface(fn); it != nil {
							c := ifaceCall{method: fn.Name() + sigText(fn)}
							for i := 0; i < it.NumMethods(); i++ {
								c.set = append(c.set, it.Method(i).Name()+sigText(it.Method(i)))
							}
							called[c.method+"\x00"+strings.Join(c.set, "\x00")] = c
						}
					}
					return true
				})
			}
		}
	}

	type decl struct{ pos, key, short string }
	var decls []decl
	declared := map[string]bool{} // internal package paths already enumerated
	var reachedTypes []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		if !strings.HasPrefix(pkg.Path, "secemb/internal/") {
			for _, name := range scope.Names() {
				if named, ok := scope.Lookup(name).Type().(*types.Named); ok {
					reachedTypes = append(reachedTypes, named)
				}
			}
			continue
		}
		if declared[pkg.Path] {
			continue
		}
		declared[pkg.Path] = true
		short := strings.TrimPrefix(pkg.Path, "secemb/internal/")
		add := func(obj types.Object, name string) {
			p := pkg.Fset.Position(obj.Pos())
			if rel, err := filepath.Rel(wd, p.Filename); err == nil {
				p.Filename = rel
			}
			decls = append(decls, decl{p.String(), objKey(obj), short + "." + name})
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			add(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if used[objKey(tn)] {
				reachedTypes = append(reachedTypes, named)
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					add(it.ExplicitMethod(i), name+"."+it.ExplicitMethod(i).Name())
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				add(named.Method(i), name+"."+named.Method(i).Name())
			}
		}
	}

	// A method nothing names is reached when it is the one a called
	// interface method dispatches to: a reached type's method set (promoted
	// methods included) satisfies the interface and holds a method of that
	// name and signature. Signatures are matched as text because one
	// interface seen from two packages holds distinct, identically printed
	// types.
	for _, named := range reachedTypes {
		ms := types.NewMethodSet(types.NewPointer(named))
		have := map[string]*types.Func{}
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			have[fn.Name()+sigText(fn)] = fn
		}
		for sig, fn := range have {
			if sig == "String() string" || sig == "Error() string" || sig == "Unwrap() error" {
				used[objKey(fn)] = true
			}
		}
	calls:
		for _, c := range called {
			for _, sig := range c.set {
				if have[sig] == nil {
					continue calls
				}
			}
			used[objKey(have[c.method])] = true
		}
	}

	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if used[d.key] {
			continue
		}
		if surfaceAllow[d.short] != "" {
			allowed[d.short] = true
		} else {
			dead = append(dead, d.pos+": "+d.short)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("declarations no non-test code uses:\n  %s", strings.Join(dead, "\n  "))
	}
	for key := range surfaceAllow {
		if !allowed[key] {
			t.Errorf("surfaceAllow[%q]: reached after all (or gone); drop the entry", key)
		}
	}
}

// objKey names a package-level object across loads: analysis.FuncKey for
// funcs and methods of named types, pkgpath.Name for the rest, "" for
// anything local, universe-scoped, a struct field or a method of an
// unnamed interface (which FuncKey would render as a package-level func).
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if _, named := types.Unalias(derefPtr(recv.Type())).(*types.Named); !named {
				return ""
			}
		}
		return analysis.FuncKey(o.Origin())
	case *types.TypeName, *types.Const, *types.Var:
		if o.Pkg() == nil || o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return o.Pkg().Path() + "." + o.Name()
	}
	return ""
}

// declKeys returns the keys a top-level declaration declares, whose uses
// inside it do not count, and the receiver type identifiers of a method.
func declKeys(pkg *analysis.Package, d ast.Decl) (map[string]bool, map[*ast.Ident]bool) {
	self, skip := map[string]bool{}, map[*ast.Ident]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		self[objKey(pkg.Info.Defs[d.Name])] = true
		if d.Recv != nil {
			ast.Inspect(d.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			if ts, ok := s.(*ast.TypeSpec); ok {
				self[objKey(pkg.Info.Defs[ts.Name])] = true
			}
		}
	}
	return self, skip
}

// recvInterface returns the interface a method belongs to, or nil for a
// concrete method or a func.
func recvInterface(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

// sigText prints a method's parameter and result types without names or
// receiver, e.g. "(int, []byte) error".
func sigText(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	tuple := func(tup *types.Tuple) string {
		parts := make([]string, tup.Len())
		for i := range parts {
			parts[i] = types.TypeString(tup.At(i).Type(), nil)
		}
		return strings.Join(parts, ", ")
	}
	s := "(" + tuple(sig.Params()) + ")"
	if sig.Variadic() {
		s += "..."
	}
	switch sig.Results().Len() {
	case 0:
	case 1:
		s += " " + tuple(sig.Results())
	default:
		s += " (" + tuple(sig.Results()) + ")"
	}
	return s
}

func derefPtr(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
