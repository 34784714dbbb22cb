package analysis

import (
	"fmt"
	"go/types"
	"sort"
)

// Summary is the interprocedural taint contract of one unannotated
// function, computed from its body: for the receiver and each named
// parameter, the leak sites that fire if a secret arrives there, whether
// the taint reaches a return value, and which further functions it is
// passed into. Summaries are computed bottom-up over call-graph SCCs to a
// fixpoint, so recursion (direct or mutual) converges on the union of all
// paths.
type Summary struct {
	Fn     *types.Func
	Recv   *ParamSummary
	Params []*ParamSummary
}

// ParamSummary describes what one incoming taint slot does.
type ParamSummary struct {
	Name   string
	obj    types.Object
	Result bool // taint flows to a return value

	leaks    []Diagnostic // conditional leak sites, fired when this slot is tainted
	leakKeys map[string]bool
	inflows  []inflowRec // transitive (callee, param) slots this taint is passed into
	inflowKs map[string]bool
}

// inflowRec is one (function, parameter) slot a summarized parameter
// forwards its taint into.
type inflowRec struct {
	fn    *types.Func
	param string
}

// Leaks returns the conditional leak sites (for the -summaries dump).
func (p *ParamSummary) Leaks() []Diagnostic { return p.leaks }

func (p *ParamSummary) addLeak(d Diagnostic) bool {
	key := diagKey(d)
	if p.leakKeys[key] {
		return false
	}
	p.leakKeys[key] = true
	p.leaks = append(p.leaks, d)
	return true
}

func (p *ParamSummary) addInflow(fn *types.Func, param string) bool {
	key := FuncKey(fn) + "\x00" + param
	if p.inflowKs[key] {
		return false
	}
	p.inflowKs[key] = true
	p.inflows = append(p.inflows, inflowRec{fn: fn, param: param})
	return true
}

func diagKey(d Diagnostic) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s\x00%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// paramFor maps a call-site argument index to the matching parameter
// summary (variadic arguments collapse onto the final parameter). Returns
// nil for unnamed or blank parameters, which cannot carry taint into the
// body.
func (s *Summary) paramFor(argIndex int) *ParamSummary {
	if len(s.Params) == 0 {
		return nil
	}
	if argIndex >= len(s.Params) {
		argIndex = len(s.Params) - 1
	}
	return s.Params[argIndex]
}

// newSummary allocates an empty summary matching the function's
// declaration shape.
func newSummary(prog *Program, key string) *Summary {
	info := prog.fns[key]
	s := &Summary{Fn: info.fn}
	newSlot := func(name string, obj types.Object) *ParamSummary {
		return &ParamSummary{Name: name, obj: obj, leakKeys: map[string]bool{}, inflowKs: map[string]bool{}}
	}
	if info.decl.Recv != nil && len(info.decl.Recv.List) > 0 {
		f := info.decl.Recv.List[0]
		if len(f.Names) > 0 && f.Names[0].Name != "_" {
			s.Recv = newSlot(f.Names[0].Name, info.pkg.Info.Defs[f.Names[0]])
		}
	}
	if info.decl.Type.Params != nil {
		for _, f := range info.decl.Type.Params.List {
			if len(f.Names) == 0 {
				// Unnamed parameter: the body cannot reference it, so taint
				// arriving there is inert. Keep the slot for index alignment.
				s.Params = append(s.Params, nil)
				continue
			}
			for _, name := range f.Names {
				if name.Name == "_" {
					s.Params = append(s.Params, nil)
					continue
				}
				s.Params = append(s.Params, newSlot(name.Name, info.pkg.Info.Defs[name]))
			}
		}
	}
	return s
}

// computeSummary (re)derives fn's summary by seeding each taint slot
// individually and walking the body to a fixpoint, resolving calls through
// the summaries computed so far. Reports whether anything grew (the SCC
// fixpoint's change signal). Taint is a union lattice, so per-slot seeding
// composes exactly: a site leaks under a taint set iff it leaks under some
// singleton of it.
func (prog *Program) computeSummary(key string) bool {
	s := prog.summaries[key]
	info := prog.fns[key]
	changed := false
	slots := make([]*ParamSummary, 0, len(s.Params)+1)
	if s.Recv != nil {
		slots = append(slots, s.Recv)
	}
	for _, p := range s.Params {
		if p != nil {
			slots = append(slots, p)
		}
	}
	for _, slot := range slots {
		if slot.obj == nil {
			continue
		}
		w := &taintWalker{
			prog:        prog,
			pkg:         info.pkg,
			info:        info.pkg.Info,
			tainted:     map[types.Object]bool{slot.obj: true},
			summaryMode: true,
		}
		suffix := fmt.Sprintf(" (via secret-tainted parameter %q of %s)", slot.Name, info.fn.Name())
		w.emitNew = func(d Diagnostic) {
			d.Message += suffix
			if slot.addLeak(d) {
				changed = true
			}
		}
		w.emitInherited = func(d Diagnostic) {
			if slot.addLeak(d) {
				changed = true
			}
		}
		w.inflow = func(callee *types.Func, param string) {
			if slot.addInflow(callee, param) {
				changed = true
			}
		}
		for range [64]struct{}{} {
			w.changed = false
			w.stmt(info.decl.Body, returnCtx{})
			if !w.changed {
				break
			}
		}
		w.reporting = true
		w.stmt(info.decl.Body, returnCtx{})
		if w.returnTainted && !slot.Result {
			slot.Result = true
			changed = true
		}
	}
	return changed
}

// Summaries returns every computed summary sorted by function key, for the
// -summaries dump mode of cmd/obliviouslint.
func (prog *Program) Summaries() []*Summary {
	prog.build()
	out := make([]*Summary, 0, len(prog.summaries))
	for _, s := range prog.summaries {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Key returns the qualified function name of the summarized function.
func (s *Summary) Key() string { return FuncKey(s.Fn) }
