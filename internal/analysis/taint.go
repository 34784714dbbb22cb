package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// sinkPackages are sanctioned destinations for tainted values: the
// repository's branchless primitives plus the pure value arithmetic of the
// standard library. Calls into these packages never surface findings; their
// results stay tainted (a mask computed from a secret is still a secret).
var sinkPackages = map[string]bool{
	"secemb/internal/oblivious": true,
	"math":                      true,
	"math/bits":                 true,
}

// Rule identifiers (the strings //lint:allow waivers name).
const (
	RuleBranch    = "obliviouslint/branch"
	RuleIndex     = "obliviouslint/index"
	RuleLoop      = "obliviouslint/loop"
	RuleCall      = "obliviouslint/call"
	RuleDeclass   = "obliviouslint/declass"
	RuleDirective = "obliviouslint/directive"
	RuleAlloc     = "obliviouslint/alloc"
	RuleMapKey    = "obliviouslint/mapkey"
	RuleChan      = "obliviouslint/chan"
	RuleShift     = "obliviouslint/shift"
	RuleDrift     = "obliviouslint/drift"
	RuleAsm       = "obliviouslint/asm"
	RuleDiv       = "obliviouslint/div"
)

// obliviouslintRules is every rule the taint analyzer can emit, used by the
// stale-waiver pass to know which waivers this run could have consumed.
var obliviouslintRules = []string{
	RuleBranch, RuleIndex, RuleLoop, RuleCall, RuleDeclass, RuleDirective,
	RuleAlloc, RuleMapKey, RuleChan, RuleShift, RuleDrift, RuleAsm, RuleDiv,
}

// Obliviouslint returns the secret-independence taint analyzer. Audit roots
// are functions annotated `// secemb:secret <param>…`; taint propagates
// through assignments, composite expressions, sink calls and annotated
// returns — and, interprocedurally, through calls into unannotated
// functions whose bodies are in the program, via bottom-up call-graph
// summaries (see Program). Every flow into control flow, an index, a map
// key, an allocation size, a shift amount, a channel, or an unauditable
// callee is reported under one of the obliviouslint/* rules. The same
// directives drive obliviouslint/asm over the package's assembly (asm.go).
func Obliviouslint() *Analyzer {
	return &Analyzer{
		Name:   "obliviouslint",
		Doc:    "report control flow, indexing, allocation, and calls that depend on secemb:secret-tainted values",
		Rules:  obliviouslintRules,
		Run:    runObliviouslint,
		Finish: finishObliviouslint,
	}
}

func runObliviouslint(pass *Pass) error {
	// Surface malformed directives in this package (unknown parameter
	// names, empty lists) as findings so annotation typos fail the run.
	for _, d := range CollectDirectives(NewIndex(), pass.Pkg) {
		pass.report(d)
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			dir := pass.Directives.Lookup(fn)
			if dir == nil || len(dir.Secret) == 0 {
				continue // not an audit root
			}
			t := &taintWalker{
				prog:    pass.Prog,
				pkg:     pass.Pkg,
				info:    pass.Pkg.Info,
				tainted: map[types.Object]bool{},
			}
			t.emitNew = func(d Diagnostic) { pass.report(d) }
			t.emitInherited = func(d Diagnostic) { pass.report(d) }
			t.inflow = pass.Prog.recordInflow
			t.seedParams(fd, dir)
			// Propagate to a fixpoint (loops can carry taint backward
			// through earlier assignments), then report in one final pass.
			for range [64]struct{}{} {
				t.changed = false
				t.stmt(fd.Body, returnCtx{sanctioned: dir.Return})
				if !t.changed {
					break
				}
			}
			t.reporting = true
			t.stmt(fd.Body, returnCtx{sanctioned: dir.Return})
		}
	}
	return auditAsm(pass)
}

// finishObliviouslint runs once after every target package: the
// annotation-drift pass. An exported function whose summary received
// secret inflow (its parameters were handed tainted arguments, directly
// from an audit root or transitively through other summaries) is an API
// boundary whose contract has drifted out of the directive system — the
// same sync discipline secemb:audit enforces for the leakcheck roster.
// Unexported helpers stay silent: the interprocedural engine audits their
// bodies without ceremony.
func finishObliviouslint(prog *Program, report func(Diagnostic)) error {
	keys := make([]string, 0, len(prog.inflows))
	for key := range prog.inflows {
		info := prog.fns[key]
		if info != nil && info.fn.Exported() {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		info := prog.fns[key]
		params := make([]string, 0, len(prog.inflows[key]))
		for p := range prog.inflows[key] {
			params = append(params, fmt.Sprintf("%q", p))
		}
		sort.Strings(params)
		report(Diagnostic{
			Pos:  info.pkg.Fset.Position(info.decl.Name.Pos()),
			Rule: RuleDrift,
			Message: fmt.Sprintf(
				"annotation drift: exported function %s receives secret-tainted argument(s) on parameter(s) %s but carries no secemb:secret directive",
				info.fn.Name(), strings.Join(params, ", ")),
		})
	}
	return nil
}

// returnCtx says whether `return <tainted>` is sanctioned in the function
// or closure currently being walked.
type returnCtx struct{ sanctioned bool }

type taintWalker struct {
	prog      *Program
	pkg       *Package
	info      *types.Info
	tainted   map[types.Object]bool
	changed   bool
	reporting bool

	// summaryMode suppresses declass findings (returning taint to the
	// caller is the summary's Result flag, not a leak) while a function
	// body is walked to derive its Summary.
	summaryMode   bool
	returnTainted bool

	emitNew       func(Diagnostic) // fresh findings at positions in this body
	emitInherited func(Diagnostic) // pre-resolved sites pulled from callee summaries
	inflow        func(fn *types.Func, param string)
}

func (t *taintWalker) seedParams(fd *ast.FuncDecl, dir *FuncDirective) {
	if fd.Type.Params == nil {
		return
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if dir.Secret[name.Name] {
				if obj := t.info.Defs[name]; obj != nil {
					t.tainted[obj] = true
				}
			}
		}
	}
}

func (t *taintWalker) mark(obj types.Object) {
	if obj == nil || obj.Name() == "_" {
		return
	}
	if !t.tainted[obj] {
		t.tainted[obj] = true
		t.changed = true
	}
}

func (t *taintWalker) objOf(id *ast.Ident) types.Object {
	if o := t.info.Defs[id]; o != nil {
		return o
	}
	return t.info.Uses[id]
}

func (t *taintWalker) reportf(pos token.Pos, rule, format string, args ...any) {
	if t.reporting {
		t.emitNew(Diagnostic{
			Pos:     t.pkg.Fset.Position(pos),
			Rule:    rule,
			Message: fmt.Sprintf(format, args...),
		})
	}
}

// applySlot pulls one summarized taint slot into the current walk: emits
// the slot's conditional leak sites, records the inflow for the drift
// pass, and reports whether the taint reaches the callee's results.
func (t *taintWalker) applySlot(fn *types.Func, p *ParamSummary) bool {
	if t.reporting {
		for _, d := range p.leaks {
			t.emitInherited(d)
		}
		if t.inflow != nil {
			t.inflow(fn, p.Name)
			for _, rec := range p.inflows {
				t.inflow(rec.fn, rec.param)
			}
		}
	}
	return p.Result
}

// --- statements ----------------------------------------------------------

func (t *taintWalker) stmt(s ast.Stmt, rc returnCtx) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			t.stmt(st, rc)
		}
	case *ast.ExprStmt:
		t.expr(s.X)
	case *ast.AssignStmt:
		t.assign(s)
	case *ast.DeclStmt:
		t.declStmt(s)
	case *ast.IfStmt:
		t.stmt(s.Init, rc)
		if t.expr(s.Cond) {
			t.reportf(s.Pos(), RuleBranch, "branch condition depends on secret-tainted value%s", earlyExitNote(s))
		}
		t.stmt(s.Body, rc)
		t.stmt(s.Else, rc)
	case *ast.ForStmt:
		t.stmt(s.Init, rc)
		if s.Cond != nil && t.expr(s.Cond) {
			t.reportf(s.Cond.Pos(), RuleLoop, "loop bound depends on secret-tainted value")
		}
		t.stmt(s.Post, rc)
		t.stmt(s.Body, rc)
	case *ast.RangeStmt:
		t.rangeStmt(s, rc)
	case *ast.SwitchStmt:
		t.stmt(s.Init, rc)
		if s.Tag != nil && t.expr(s.Tag) {
			t.reportf(s.Tag.Pos(), RuleBranch, "switch tag depends on secret-tainted value")
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if t.expr(e) && s.Tag == nil {
					t.reportf(e.Pos(), RuleBranch, "switch case condition depends on secret-tainted value")
				}
			}
			for _, st := range cc.Body {
				t.stmt(st, rc)
			}
		}
	case *ast.TypeSwitchStmt:
		t.stmt(s.Init, rc)
		if x := typeSwitchSubject(s); x != nil && t.expr(x) {
			t.reportf(x.Pos(), RuleBranch, "type switch subject depends on secret-tainted value")
		}
		for _, c := range s.Body.List {
			for _, st := range c.(*ast.CaseClause).Body {
				t.stmt(st, rc)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				if t.commTainted(cc.Comm) {
					t.reportf(cc.Comm.Pos(), RuleChan, "select communication depends on secret-tainted value")
				}
				t.stmt(cc.Comm, returnCtx{})
			}
			for _, st := range cc.Body {
				t.stmt(st, rc)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if t.expr(r) {
				if t.summaryMode {
					t.returnTainted = true
				} else if !rc.sanctioned {
					t.reportf(r.Pos(), RuleDeclass,
						"secret-tainted value returned from a function not annotated \"secemb:secret return\"")
				}
			}
		}
	case *ast.SendStmt:
		ct := t.expr(s.Chan)
		if t.expr(s.Value) || ct {
			t.reportf(s.Value.Pos(), RuleChan, "secret-tainted value sent on a channel (unauditable consumer)")
		}
	case *ast.GoStmt:
		if t.goTainted(s.Call) {
			t.reportf(s.Pos(), RuleChan, "goroutine spawn depends on secret-tainted value (scheduling is observable cross-tenant)")
		}
		t.expr(s.Call)
	case *ast.DeferStmt:
		t.expr(s.Call)
	case *ast.LabeledStmt:
		t.stmt(s.Stmt, rc)
	case *ast.IncDecStmt:
		t.expr(s.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// Guarding conditions are reported at the enclosing if/for/switch.
	}
}

// goTainted reports whether a goroutine spawn carries taint across the
// scheduling boundary: a tainted argument, or a function literal capturing
// a tainted variable. Only the spawn itself is judged here — the call is
// afterwards walked normally, so call-boundary rules still apply inside.
func (t *taintWalker) goTainted(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if t.taintedNoReport(a) {
			return true
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		captured := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := t.info.Uses[id]; obj != nil && t.tainted[obj] {
					captured = true
				}
			}
			return !captured
		})
		return captured
	}
	return false
}

// taintedNoReport evaluates an expression's taint without emitting
// findings (used for pre-checks whose expression is re-walked afterwards).
func (t *taintWalker) taintedNoReport(e ast.Expr) bool {
	saved := t.reporting
	t.reporting = false
	res := t.expr(e)
	t.reporting = saved
	return res
}

// earlyExitNote annotates branch findings whose body directly gates an
// early return/break/continue (check class 3 of the issue).
func earlyExitNote(s *ast.IfStmt) string {
	bodies := [][]ast.Stmt{s.Body.List}
	if blk, ok := s.Else.(*ast.BlockStmt); ok {
		bodies = append(bodies, blk.List)
	}
	for _, list := range bodies {
		for _, st := range list {
			switch st.(type) {
			case *ast.ReturnStmt:
				return " (guards an early return)"
			case *ast.BranchStmt:
				return " (guards a break/continue/goto)"
			}
		}
	}
	return ""
}

func typeSwitchSubject(s *ast.TypeSwitchStmt) ast.Expr {
	switch a := s.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			return ta.X
		}
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
				return ta.X
			}
		}
	}
	return nil
}

func (t *taintWalker) commTainted(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.SendStmt:
		return t.taintedNoReport(s.Chan) || t.taintedNoReport(s.Value)
	case *ast.ExprStmt:
		return t.taintedNoReport(s.X)
	case *ast.AssignStmt:
		tainted := false
		for _, r := range s.Rhs {
			tainted = t.taintedNoReport(r) || tainted
		}
		return tainted
	}
	return false
}

func (t *taintWalker) assign(s *ast.AssignStmt) {
	// Compound ops (|=, +=, …) read the lhs too.
	compound := s.Tok != token.ASSIGN && s.Tok != token.DEFINE

	rhsTaint := make([]bool, len(s.Rhs))
	any := false
	for i, r := range s.Rhs {
		rhsTaint[i] = t.expr(r)
		any = any || rhsTaint[i]
	}
	for i, l := range s.Lhs {
		taintIn := any
		if len(s.Rhs) == len(s.Lhs) {
			taintIn = rhsTaint[i]
		}
		if id, ok := l.(*ast.Ident); ok {
			if taintIn || (compound && t.tainted[t.objOf(id)]) {
				t.mark(t.objOf(id))
				if compound { // one operand each side
					t.checkDiv(s.TokPos, s.Tok, t.info.TypeOf(l), s.Rhs[0])
				}
			}
			continue
		}
		// Non-ident lhs: evaluate for index findings (a[secret] = …).
		// Stores into fields and heap cells intentionally drop taint — the
		// threat model observes addresses, not contents, and contents
		// re-enter the audit through annotated accessors (see DESIGN §10).
		t.expr(l)
	}
}

// checkDiv reports an integer /, %, /= or %= on a secret-tainted operand
// whose divisor is not a compile-time constant; any other op passes. A
// constant divisor compiles to a multiply and a shift; any other keeps a
// DIV instruction, whose latency depends on its operands on many x86
// cores.
func (t *taintWalker) checkDiv(pos token.Pos, op token.Token, typ types.Type, divisor ast.Expr) {
	switch op {
	case token.QUO, token.REM, token.QUO_ASSIGN, token.REM_ASSIGN:
	default:
		return
	}
	if b, ok := typ.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return
	}
	if tv, ok := t.info.Types[divisor]; ok && tv.Value != nil {
		return
	}
	t.reportf(pos, RuleDiv, "integer %s of a secret-tainted value by a non-constant divisor (division latency depends on the operands)", op)
}

func (t *taintWalker) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		any := false
		taints := make([]bool, len(vs.Values))
		for i, v := range vs.Values {
			taints[i] = t.expr(v)
			any = any || taints[i]
		}
		for i, name := range vs.Names {
			taintIn := any
			if len(vs.Values) == len(vs.Names) {
				taintIn = taints[i]
			}
			if taintIn {
				t.mark(t.objOf(name))
			}
		}
	}
}

func (t *taintWalker) rangeStmt(s *ast.RangeStmt, rc returnCtx) {
	xt := t.expr(s.X)
	xType := types.Default(t.info.TypeOf(s.X))
	keyTainted, valTainted := false, false
	if xt {
		switch u := xType.Underlying().(type) {
		case *types.Basic:
			if u.Info()&types.IsInteger != 0 {
				t.reportf(s.X.Pos(), RuleLoop, "range bound depends on secret-tainted value")
				keyTainted = true
			} else { // string: positions public, bytes secret
				valTainted = true
			}
		case *types.Map:
			keyTainted, valTainted = true, true
		case *types.Chan:
			valTainted = true
		default: // slice, array, pointer-to-array: positions are public
			valTainted = true
		}
	}
	if id, ok := s.Key.(*ast.Ident); ok && keyTainted {
		t.mark(t.objOf(id))
	}
	if id, ok := s.Value.(*ast.Ident); ok && valTainted {
		t.mark(t.objOf(id))
	}
	t.stmt(s.Body, rc)
}

// --- expressions ---------------------------------------------------------

// expr reports whether e evaluates to a secret-tainted value, emitting
// expression-level findings (index, mapkey, shift, call, alloc) when in
// the reporting pass.
func (t *taintWalker) expr(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		return t.tainted[t.objOf(e)]
	case *ast.BasicLit:
		return false
	case *ast.ParenExpr:
		return t.expr(e.X)
	case *ast.UnaryExpr:
		return t.expr(e.X)
	case *ast.StarExpr:
		return t.expr(e.X)
	case *ast.BinaryExpr:
		// Comparisons against nil reveal slice/pointer *structure*, which
		// is public (lengths and nil-ness are not secrets), not contents.
		if isNil(t.info, e.X) || isNil(t.info, e.Y) {
			t.expr(e.X)
			t.expr(e.Y)
			return false
		}
		xt := t.expr(e.X)
		yt := t.expr(e.Y)
		if yt && (e.Op == token.SHL || e.Op == token.SHR) {
			// Shifting BY a secret (as opposed to shifting a secret by a
			// public amount) is flagged: variable-latency shifters and the
			// 1<<secret mask-building idiom both modulate observable state
			// by the secret value.
			t.reportf(e.Y.Pos(), RuleShift, "shift amount depends on secret-tainted value")
		}
		if xt || yt {
			t.checkDiv(e.OpPos, e.Op, t.info.TypeOf(e), e.Y)
		}
		return xt || yt
	case *ast.CallExpr:
		return t.call(e)
	case *ast.IndexExpr:
		if tv, ok := t.info.Types[e]; ok && tv.IsType() {
			return false // generic instantiation, not an index
		}
		if _, isSig := t.info.TypeOf(e.X).Underlying().(*types.Signature); isSig {
			return false // instantiation of a generic function
		}
		xt := t.expr(e.X)
		it := t.expr(e.Index)
		if it {
			if _, isMap := types.Default(t.info.TypeOf(e.X)).Underlying().(*types.Map); isMap {
				t.reportf(e.Index.Pos(), RuleMapKey, "map access keyed by secret-tainted value (probe sequence depends on the key)")
			} else {
				t.reportf(e.Index.Pos(), RuleIndex, "index depends on secret-tainted value")
			}
		}
		return xt || it
	case *ast.IndexListExpr:
		return false // generic instantiation
	case *ast.SliceExpr:
		xt := t.expr(e.X)
		bt := false
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil && t.expr(b) {
				bt = true
			}
		}
		if bt {
			t.reportf(e.Pos(), RuleIndex, "slice bounds depend on secret-tainted value")
		}
		return xt || bt
	case *ast.SelectorExpr:
		if sel, ok := t.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return t.expr(e.X) // field of a tainted *value*; heap reads stay public
		}
		if obj := t.info.Uses[e.Sel]; obj != nil {
			return t.tainted[obj] // package-qualified identifier
		}
		return false
	case *ast.CompositeLit:
		tainted := false
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.expr(el) {
				tainted = true
			}
		}
		return tainted
	case *ast.TypeAssertExpr:
		return t.expr(e.X)
	case *ast.FuncLit:
		// Closures are analyzed in the enclosing taint environment, so
		// captured secrets stay tainted inside the body. The closure value
		// itself is not a taint carrier.
		t.stmt(e.Body, returnCtx{})
		return false
	}
	return false
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// call classifies the callee and checks the taint contract at the call
// boundary: sinks pass freely, annotated callees are held to their
// declared contract, unannotated callees with bodies in the program are
// resolved through their interprocedural summary, and everything else
// (indirect calls, out-of-program functions) is conservatively flagged.
func (t *taintWalker) call(c *ast.CallExpr) bool {
	if tv, ok := t.info.Types[c.Fun]; ok && tv.IsType() {
		return t.expr(c.Args[0]) // conversion
	}
	// Walk a method call's receiver chain for findings (arr[secret].M())
	// and capture whether the receiver itself carries taint.
	recvTainted := false
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		recvTainted = t.expr(sel.X)
	}
	// An immediately-invoked closure's body is analyzed in the enclosing
	// taint environment like any other closure.
	if fl, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		t.stmt(fl.Body, returnCtx{})
	}

	if b := t.builtinOf(c.Fun); b != nil {
		return t.builtinCall(b, c)
	}

	argTaint := make([]bool, len(c.Args))
	any := false
	for i, a := range c.Args {
		argTaint[i] = t.expr(a)
		any = any || argTaint[i]
	}

	fn := calleeFunc(t.info, c)
	if fn == nil {
		if any {
			t.reportf(c.Pos(), RuleCall, "secret-tainted argument in indirect call (callee not statically auditable)")
		}
		return any
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	dir := t.prog.Directives.Lookup(fn)
	if (dir != nil && dir.Sink) || sinkPackages[pkgPath] {
		return any || recvTainted // sanctioned sink: tainted in, tainted out
	}
	if dir != nil && (len(dir.Secret) > 0 || dir.Return) {
		sig := fn.Type().(*types.Signature)
		for i, tainted := range argTaint {
			if !tainted {
				continue
			}
			name := paramName(sig, i)
			if !dir.Secret[name] {
				t.reportf(c.Args[i].Pos(), RuleCall,
					"secret-tainted argument passed to non-secret parameter %q of %s", name, fn.Name())
			}
		}
		return dir.Return && (any || recvTainted)
	}
	// Interprocedural: an unannotated callee whose body is loaded is
	// analyzed under the inherited taint via its summary — the conditional
	// leak sites inside (and below) it fire here, instead of a blanket
	// "escapes into unannotated function" finding at the call.
	if sum := t.prog.summaryFor(fn); sum != nil {
		out := false
		for i, tainted := range argTaint {
			if !tainted {
				continue
			}
			if p := sum.paramFor(i); p != nil {
				out = t.applySlot(fn, p) || out
			}
		}
		if recvTainted && sum.Recv != nil {
			out = t.applySlot(fn, sum.Recv) || out
		}
		return out
	}
	if any {
		t.reportf(c.Pos(), RuleCall,
			"secret-tainted argument escapes into unannotated function %s (annotate secemb:secret or use internal/oblivious)", fn.Name())
	}
	return any
}

func (t *taintWalker) builtinOf(fun ast.Expr) *types.Builtin {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := t.info.Uses[id].(*types.Builtin)
	return b
}

func (t *taintWalker) builtinCall(b *types.Builtin, c *ast.CallExpr) bool {
	any := false
	for _, a := range c.Args {
		if t.expr(a) {
			any = true
		}
	}
	switch b.Name() {
	case "len", "cap":
		return false // lengths are public even for secret-valued containers
	case "append", "min", "max":
		return any
	case "make":
		// make(T, secretLen) sizes an allocation by the secret: the heap
		// footprint (and the allocator's size-class probes) leak it. The
		// result is treated as tainted — it is a secret-shaped object.
		sized := false
		for _, a := range c.Args[1:] {
			if t.taintedNoReport(a) {
				sized = true
			}
		}
		if sized {
			t.reportf(c.Pos(), RuleAlloc, "allocation size depends on secret-tainted value")
		}
		return sized
	case "copy":
		if len(c.Args) == 2 && t.taintedNoReport(c.Args[1]) {
			if id, ok := ast.Unparen(c.Args[0]).(*ast.Ident); ok {
				t.mark(t.objOf(id)) // copy(dst, taintedSrc) taints dst
			}
		}
		return false
	case "delete":
		if len(c.Args) == 2 && t.taintedNoReport(c.Args[1]) {
			t.reportf(c.Args[1].Pos(), RuleMapKey, "map delete keyed by secret-tainted value (probe sequence depends on the key)")
		}
		return false
	}
	return false
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func paramName(sig *types.Signature, argIndex int) string {
	n := sig.Params().Len()
	if n == 0 {
		return ""
	}
	if argIndex >= n {
		argIndex = n - 1 // variadic tail
	}
	return sig.Params().At(argIndex).Name()
}
