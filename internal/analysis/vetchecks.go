package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RuleShadow identifies the strict-vet shadow analyzer's findings.
const RuleShadow = "vet/shadow"

// Shadow reports := declarations that shadow a same-typed variable of the
// enclosing function which is still used after the shadowing scope ends —
// the classic source of "assigned to the wrong err" bugs. The liveness
// condition keeps the check quiet on the idiomatic redeclare-in-branch
// pattern vet's experimental shadow check is notorious for flagging.
func Shadow() *Analyzer {
	return &Analyzer{
		Name:  "shadow",
		Doc:   "report shadowed variables whose outer binding is used after the inner scope",
		Rules: []string{RuleShadow},
		Run:   runShadow,
	}
}

func runShadow(pass *Pass) error {
	info := pass.Pkg.Info

	// Index every use position of every object once.
	lastUse := map[types.Object]int{}
	for id, obj := range info.Uses {
		pos := pass.Pkg.Fset.Position(id.Pos()).Offset
		if pos > lastUse[obj] {
			lastUse[obj] = pos
		}
	}

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			fnStart, fnEnd := fd.Pos(), fd.End()
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || as.Tok != token.DEFINE {
					return true
				}
				for _, l := range as.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					inner, ok := info.Defs[id].(*types.Var)
					if !ok {
						continue
					}
					innerScope := inner.Parent()
					if innerScope == nil || innerScope.Parent() == nil {
						continue
					}
					_, outerObj := innerScope.Parent().LookupParent(id.Name, id.Pos())
					outer, ok := outerObj.(*types.Var)
					if !ok || outer == inner || outer.IsField() {
						continue
					}
					// Only shadowing within the same function, same type.
					if outer.Pos() < fnStart || outer.Pos() >= fnEnd {
						continue
					}
					if !types.Identical(outer.Type(), inner.Type()) {
						continue
					}
					// Outer must still be live after the inner scope ends.
					innerEnd := pass.Pkg.Fset.Position(innerScope.End()).Offset
					if lastUse[outer] > innerEnd {
						pass.Reportf(id.Pos(), RuleShadow,
							"declaration of %q shadows declaration at line %d (outer is used after this scope)",
							id.Name, pass.Pkg.Fset.Position(outer.Pos()).Line)
					}
				}
				return true
			})
			return true
		})
	}
	return nil
}
