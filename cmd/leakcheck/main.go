// Command leakcheck runs the trace-equivalence leakage audit
// (internal/leakcheck) over every generator and writes a JSON divergence
// report. It exits non-zero when any oblivious technique diverges across
// the adversarial input panel — or when the plain table lookup is *not*
// flagged leaky, which would mean the harness itself has lost its teeth.
// CI runs it on every PR and uploads the report as a build artifact, so a
// leakage regression blocks merges the same way a test failure does.
//
// It also cross-checks the static annotations against its own roster: any
// `// secemb:audit <name>` directive in the module at -src names a dynamic
// target that this command must know how to build. An annotated-but-
// unrostered name means a generator claims dynamic coverage it does not
// get, so the run fails before any trace is recorded.
//
// Usage:
//
//	leakcheck [-rows 512] [-dim 16] [-batch 8] [-seed 1]
//	          [-gens lookup,scan,scanb,path,circuit,dhe,dhe-int8,dual,coalesce,wire,circuit-rec,planner]
//	          [-src .] [-out leakcheck_report.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"secemb/internal/analysis"
	"secemb/internal/cli"
	"secemb/internal/leakcheck"
)

// fileReport is the JSON artifact schema.
type fileReport struct {
	Rows      int                 `json:"rows"`
	Dim       int                 `json:"dim"`
	Batch     int                 `json:"batch"`
	Seed      int64               `json:"seed"`
	PanelSize int                 `json:"panel_size"`
	OK        bool                `json:"ok"`
	Results   []*leakcheck.Report `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakcheck", flag.ContinueOnError)
	var rows, dim, batch int
	cli.Bounded(fs, &rows, "rows", 512, 2, "table cardinality")
	cli.Bounded(fs, &dim, "dim", 16, 1, "embedding dimension (the wire target's dim field caps it at 65535)", math.MaxUint16)
	cli.Bounded(fs, &batch, "batch", 8, 1, "ids per panel input")
	seed := fs.Int64("seed", 1, "construction seed (table rows and DHE weights; ORAM leaves come from crypto/rand; any value)")
	gens := fs.String("gens", "", "comma-separated targets (default: all)")
	src := fs.String("src", "", "module root to cross-check secemb:audit directives against the roster (empty: skip)")
	out := fs.String("out", "leakcheck_report.json", "JSON report path (empty: skip)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}

	factories := leakcheck.StandardFactories(rows, dim, *seed)
	// The quantized DHE hot path: identical dense sweep, int8 inner
	// product. Audited separately from dhe because the kernels (and
	// the activation-quantization step) are a different code path.
	factories = append(factories, leakcheck.Int8DHEFactory(rows, dim, *seed))
	// The hybrid dispatches on batch size; threshold = batch puts the
	// panel in its ORAM regime (the DHE regime is already covered by the
	// dhe target, which shares the representation).
	factories = append(factories, leakcheck.DualFactory(rows, dim, batch, *seed))
	// The serving micro-batcher: panel ids arrive as single-id requests
	// and the coalescer's fused batch composition must be id-independent.
	// Fastest when -batch is a multiple of the coalesce batch (4): every
	// fused batch fills and flushes without waiting out the flush timer.
	factories = append(factories, leakcheck.CoalescedFactory(rows, dim, *seed))
	// The network front door: panel batches traverse the wire codec, the
	// h2c server and the serving stack; the padded response size the
	// client observes joins the trace, so an id-dependent response size
	// (or backend access) diverges.
	factories = append(factories, leakcheck.WireFactory(rows, dim, *seed))
	// Circuit ORAM past its recursion cutoff, at its own table size: the
	// shared -rows table never reaches a recursive position map.
	factories = append(factories, leakcheck.CircuitRecFactory(dim, *seed))
	// The adaptive planner's hot-swap path: every panel input crosses a
	// forced scan→DHE re-plan boundary, so a swap whose existence or timing
	// depended on the ids would move the boundary and diverge.
	factories = append(factories, leakcheck.PlannerFactory(rows, dim, *seed))

	// Roster sync runs against the full factory set, before any -gens
	// narrowing: a directive is valid as long as *some* leakcheck run can
	// exercise it, not just this one.
	if *src != "" {
		roster := map[string]bool{}
		for _, f := range factories {
			roster[f.Name] = true
		}
		ghosts, audited, err := auditRosterGhosts(*src, roster)
		if err != nil {
			fmt.Fprintln(stderr, "leakcheck:", err)
			return 2
		}
		if len(ghosts) > 0 {
			fmt.Fprintf(stderr, "leakcheck: secemb:audit names with no dynamic roster target: %s\n",
				strings.Join(ghosts, ", "))
			fmt.Fprintln(stderr, "leakcheck: FAILED — annotated generators must be auditable (add a factory or fix the directive)")
			return 1
		}
		fmt.Fprintf(stdout, "roster: %d secemb:audit directive name(s) all map to dynamic targets\n", audited)
	}

	if *gens != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*gens, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		filtered := factories[:0]
		for _, f := range factories {
			if keep[f.Name] {
				filtered = append(filtered, f)
				delete(keep, f.Name)
			}
		}
		if len(keep) > 0 {
			fmt.Fprintf(stderr, "leakcheck: unknown -gens targets: %v\n", keys(keep))
			return 2
		}
		factories = filtered
	}

	report := fileReport{Rows: rows, Dim: dim, Batch: batch, Seed: *seed, OK: true}
	for _, f := range factories {
		panel := leakcheck.AdversarialPanel(f.Rows, batch)
		report.PanelSize = len(panel)
		rep, err := leakcheck.Verify(f, panel)
		if err != nil {
			fmt.Fprintln(stderr, "leakcheck:", err)
			return 2
		}
		report.Results = append(report.Results, rep)
		status := "OK"
		switch {
		case !rep.Pass() && rep.Leaky:
			status = "LEAK"
		case !rep.Pass():
			status = "NO-TEETH" // insecure baseline came back clean
		case rep.Leaky:
			status = "OK (leaky as expected)"
		}
		fmt.Fprintf(stdout, "%-8s %-22s trace=%d accesses, panel=%d\n",
			status, describe(rep), rep.TraceLen, rep.PanelSize)
		for _, d := range rep.Divergences {
			if !rep.Pass() {
				fmt.Fprintf(stdout, "         %s\n", d)
			}
		}
		if !rep.Pass() {
			report.OK = false
		}
	}

	if *out != "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "leakcheck:", err)
			return 2
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "leakcheck:", err)
			return 2
		}
		fmt.Fprintf(stdout, "report: %s\n", *out)
	}
	if !report.OK {
		fmt.Fprintln(stderr, "leakcheck: FAILED — see divergence report")
		return 1
	}
	return 0
}

// auditRosterGhosts loads the module at root with obliviouslint's loader
// and returns, sorted, the `secemb:audit` names that no leakcheck factory
// implements, plus the total count of audit name occurrences.
func auditRosterGhosts(root string, roster map[string]bool) (ghosts []string, audited int, err error) {
	set, err := analysis.LoadModule(root, "./...")
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, d := range set.Directives.All() {
		for _, name := range d.Audit {
			audited++
			if !roster[name] && !seen[name] {
				seen[name] = true
				ghosts = append(ghosts, name)
			}
		}
	}
	sort.Strings(ghosts)
	return ghosts, audited, nil
}

func describe(r *leakcheck.Report) string {
	kind := "oblivious"
	if !r.Secure {
		kind = "baseline"
	}
	return fmt.Sprintf("%s (%s)", r.Name, kind)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
