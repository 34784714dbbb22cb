package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Program is the whole-program view the interprocedural engine works on:
// every package whose syntax is available (All) and the subset whose
// annotated functions are analyzed as audit roots (Targets). Summaries are
// computed over All, so a target root calling into a dep-only module
// package still has the callee's body analyzed instead of falling back to
// a conservative call finding.
//
// All maps are keyed by FuncKey, not *types.Func: each package is
// type-checked from source against gc export data, so the same function
// seen from a caller's package is a different object than the one from its
// defining package — the qualified name is the stable identity.
type Program struct {
	All        []*Package
	Targets    []*Package
	Directives *Index

	built     bool
	fns       map[string]*fnInfo
	summaries map[string]*Summary
	inflows   map[string]map[string]bool // drift bookkeeping: fn key → params handed secrets
}

// fnInfo ties a resolved function to its declaration syntax in the
// defining package's source view.
type fnInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// NewProgram builds a Program. targets must be a subset of all (the same
// *Package pointers); directives must cover every package in all.
func NewProgram(all, targets []*Package, directives *Index) *Program {
	return &Program{All: all, Targets: targets, Directives: directives}
}

// build indexes every function declaration with a body, constructs the
// summary-dependency call graph, and computes taint summaries bottom-up in
// SCC order. Idempotent.
func (prog *Program) build() {
	if prog.built {
		return
	}
	prog.built = true
	prog.fns = map[string]*fnInfo{}
	prog.summaries = map[string]*Summary{}
	prog.inflows = map[string]map[string]bool{}

	for _, pkg := range prog.All {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || fn == nil {
					continue
				}
				if key := FuncKey(fn); key != "" {
					prog.fns[key] = &fnInfo{fn: fn, decl: fd, pkg: pkg}
				}
			}
		}
	}

	// Summaries are needed only for functions the call-boundary logic
	// consults them for: unannotated (no secret/return contract), non-sink
	// functions with bodies. Annotated functions are audited as their own
	// roots and checked at calls by their declared contract.
	var nodes []string
	for key, info := range prog.fns {
		if prog.summarizable(info.fn) {
			nodes = append(nodes, key)
		}
	}
	sort.Strings(nodes)

	edges := map[string][]string{}
	for _, key := range nodes {
		info := prog.fns[key]
		callees := map[string]bool{}
		ast.Inspect(info.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(info.pkg.Info, call); callee != nil {
				ck := FuncKey(callee)
				if ck != "" && ck != key && prog.fns[ck] != nil && prog.summarizable(callee) {
					callees[ck] = true
				}
			}
			return true
		})
		for ck := range callees {
			edges[key] = append(edges[key], ck)
		}
		sort.Strings(edges[key])
	}

	for _, scc := range sccOrder(nodes, edges) {
		// Initialize empty summaries so recursive calls within the SCC
		// resolve to the current (monotonically growing) approximation.
		for _, key := range scc {
			prog.summaries[key] = newSummary(prog, key)
		}
		for range [32]struct{}{} {
			changed := false
			for _, key := range scc {
				if prog.computeSummary(key) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// summarizable reports whether calls into fn are resolved through a taint
// summary (rather than a directive contract or the sink whitelist).
func (prog *Program) summarizable(fn *types.Func) bool {
	if fn.Pkg() != nil && sinkPackages[fn.Pkg().Path()] {
		return false
	}
	dir := prog.Directives.Lookup(fn)
	if dir != nil && (dir.Sink || len(dir.Secret) > 0 || dir.Return) {
		return false
	}
	return true
}

// summaryFor returns fn's taint summary, or nil when calls to fn must be
// handled by contract, sink whitelist, or the conservative fallback.
func (prog *Program) summaryFor(fn *types.Func) *Summary {
	prog.build()
	return prog.summaries[FuncKey(fn)]
}

// recordInflow notes that param of fn received a secret-tainted argument
// (directly from an audit root, or transitively through summaries). The
// drift rule reads this after all roots have been walked.
func (prog *Program) recordInflow(fn *types.Func, param string) {
	key := FuncKey(fn)
	if key == "" {
		return
	}
	if prog.inflows[key] == nil {
		prog.inflows[key] = map[string]bool{}
	}
	prog.inflows[key][param] = true
}

// sccOrder returns the strongly connected components of the call graph in
// reverse topological order (callees before callers), via Tarjan's
// algorithm with an explicit stack of work items.
func sccOrder(nodes []string, edges map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		fn string
		ei int // next edge to visit
	}

	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{fn: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(edges[f.fn]) {
				callee := edges[f.fn][f.ei]
				f.ei++
				if _, seen := index[callee]; !seen {
					index[callee], low[callee] = next, next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					frames = append(frames, frame{fn: callee})
				} else if onStack[callee] && low[f.fn] > index[callee] {
					low[f.fn] = index[callee]
				}
				continue
			}
			// All edges visited: close the frame.
			fn := f.fn
			frames = frames[:len(frames)-1]
			if len(frames) > 0 && low[frames[len(frames)-1].fn] > low[fn] {
				low[frames[len(frames)-1].fn] = low[fn]
			}
			if low[fn] == index[fn] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == fn {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
