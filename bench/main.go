// Command bench is the repository's benchmark: it drives the real secembd
// binary over loopback HTTP/2 with five seeded workloads and reports seven
// end-to-end metrics per workload, plus per-layer numbers from what those
// runs show from outside, from direct probes of each layer's public
// functions, and from a traced in-process run of the same stack.
//
// bench/run.sh builds secembd and this program and passes the paths in;
// see bench/README.md for the metric glossary.
//
//	bash bench/run.sh                                  # every metric, every workload
//	bash bench/run.sh -mode e2e -workload front-door   # one slice
//	bash bench/run.sh -repeat                          # two sets, compared with the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   # pipeline contract
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// defaultSeed is the seed of the committed baseline; heldOutSeed is never
// used while tuning a change and is what a claimed gain must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 20250925
)

// runSeconds is BENCHMARK.json's run_seconds: as long as 114 pipeline runs
// with their set-ups, verification and two builds fit in 57 minutes with a
// sixth to spare.
const runSeconds = 16

type config struct {
	secembd  string // path of the built server binary
	root     string // repository root (for bench/out)
	workload string
	seed     int64
	seconds  int
	trace    int // -1: tooling mode; 0/1: pipeline contract
	mode     string
	repeat   bool
	inFlight int     // tooling: overrides a closed loop's client count
	rate     float64 // tooling: overrides an open loop's arrival rate
}

func main() {
	var c config
	flag.StringVar(&c.secembd, "secembd", "", "path of the secembd binary under test (run.sh builds it)")
	flag.StringVar(&c.root, "root", ".", "repository root")
	flag.StringVar(&c.workload, "workload", "", "workload name (empty: all five)")
	flag.Int64Var(&c.seed, "seed", defaultSeed, fmt.Sprintf("the only source of ids, batch sizes and arrival times (held out for claims: %d)", heldOutSeed))
	flag.IntVar(&c.seconds, "seconds", runSeconds, "measured seconds per end-to-end run")
	flag.IntVar(&c.trace, "trace", -1, "pipeline contract: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer metrics")
	flag.StringVar(&c.mode, "mode", "all", "tooling: e2e, probe, trace or all")
	flag.BoolVar(&c.repeat, "repeat", false, "tooling: run two end-to-end sets and compare them with the metrics' bounds")
	flag.IntVar(&c.inFlight, "inflight", 0, "tooling: override the closed-loop workloads' client count (to walk the latency/throughput curve)")
	flag.Float64Var(&c.rate, "rate", 0, "tooling: override the open-loop workloads' arrival rate, requests per second")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, &c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, c *config) error {
	if c.secembd == "" {
		return fmt.Errorf("-secembd is required (use bench/run.sh)")
	}
	sel := workloads
	if c.workload != "" {
		w, err := findWorkload(c.workload)
		if err != nil {
			return err
		}
		sel = []workload{*w}
	}
	sel = slices.Clone(sel)
	for i := range sel {
		if c.inFlight > 0 && sel[i].InFlight > 0 {
			sel[i].InFlight = c.inFlight
		}
		if c.rate > 0 && sel[i].InFlight == 0 {
			sel[i].Rate = c.rate
		}
	}
	switch {
	case c.trace >= 0:
		if len(sel) != 1 {
			return fmt.Errorf("-trace needs one -workload")
		}
		return runContract(ctx, c, &sel[0])
	case c.repeat:
		return runRepeat(ctx, c, sel)
	}
	return runTooling(ctx, c, sel)
}

func (c *config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }
func (c *config) outDir() string         { return filepath.Join(c.root, "bench", "out") }

// result is the pipeline's last-line JSON object.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one pipeline run: one workload, one seed, and as the last
// line of stdout the end-to-end metrics (-trace 0) or the per-layer ones
// (-trace 1).
func runContract(ctx context.Context, c *config, w *workload) error {
	// setup_s is an end-to-end metric: a -trace 1 run reports none and
	// brings its server up once.
	e2e, err := runE2E(ctx, c.secembd, w, c.seed, c.measure(), c.trace == 0)
	if err != nil {
		return err
	}
	report, catalogue := e2e.EndToEnd, endToEnd
	if c.trace == 1 {
		probes, err := runProbes(ctx, allProbes)
		if err != nil {
			return err
		}
		traced, err := runTraced(ctx, c, w, e2e.P50, probes)
		if err != nil {
			return err
		}
		report, catalogue = slices.Concat(e2e.PerLayer, probes, traced), perLayer
	}
	if err := checkReport(report, catalogue); err != nil {
		return err
	}
	printMetrics(w.Name, report)
	if e2e.FirstErr != nil {
		fmt.Printf("%s: first failure: %v\n", w.Name, e2e.FirstErr)
	}
	res := result{
		Correct:   e2e.Failed == 0,
		Attempted: e2e.Attempted,
		Failed:    e2e.Failed,
		Metrics:   map[string]jsonValue{},
	}
	for _, m := range report {
		res.Metrics[m.Name] = jsonValue{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runTooling prints every metric the selected mode produces, by name and
// with its unit, for each selected workload.
func runTooling(ctx context.Context, c *config, sel []workload) error {
	var probes []metric
	var err error
	switch c.mode {
	case "probe", "all":
		if probes, err = runProbes(ctx, allProbes); err != nil {
			return err
		}
		printMetrics("probe", probes)
	case "trace": // the closure check needs the idle front-door cost
		if probes, err = runProbes(ctx, []func(*prober) error{probeWire}); err != nil {
			return err
		}
	case "e2e":
	default:
		return fmt.Errorf("unknown -mode %q", c.mode)
	}
	failed := 0
	for i := range sel {
		w := &sel[i]
		var p50 time.Duration
		if c.mode == "e2e" || c.mode == "all" {
			e2e, err := runE2E(ctx, c.secembd, w, c.seed, c.measure(), true)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printMetrics(w.Name, append(e2e.EndToEnd, e2e.PerLayer...))
			fmt.Printf("%-12s attempted=%d failed=%d\n", w.Name, e2e.Attempted, e2e.Failed)
			if e2e.FirstErr != nil {
				fmt.Printf("%-12s first failure: %v\n", w.Name, e2e.FirstErr)
			}
			failed += e2e.Failed
			p50 = e2e.P50
		}
		if c.mode == "trace" || c.mode == "all" {
			traced, err := runTraced(ctx, c, w, p50, probes)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			printMetrics(w.Name, traced)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed or returned wrong output", failed)
	}
	return nil
}

func printMetrics(scope string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-12s %-36s %14.4f %s\n", scope, m.Name, m.Value, m.Unit)
	}
}
