// Command dlrmbench measures *real wall-clock* DLRM inference with this
// repository's secure embedding generators, on a miniature of the Criteo
// layouts sized by -scale (the full tables would take tens of GB). The
// model-based paper-machine numbers live in cmd/experiments; this tool
// shows the same orderings emerging from executed code on the host.
//
// With -coalesce N it instead drives the layered serving stack: 64
// concurrent single-row clients per technique, served once per-request and
// once with cross-request micro-batching over -shards replica groups, so
// the batch-amortization of Fig. 5 is measured end-to-end rather than from
// a caller-provided batch.
//
// Usage:
//
//	dlrmbench [-dataset kaggle|terabyte] [-scale 1e-4] [-batch 32]
//	          [-reps 5] [-techniques lookup,scan,circuit,dhe,hybrid]
//	          [-coalesce 0] [-shards 2] [-clients 64] [-wait 2ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"secemb/internal/cli"
	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dlrm"
	"secemb/internal/obs"
	"secemb/internal/planner"
	"secemb/internal/profile"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds dlrmbench's flags.
type options struct {
	dataset, techniques, criteo, metricsAddr, autotune, planFile string
	scale                                                        float64
	batch, reps, coalesce, shards, clients                       int
	seed                                                         int64
	wait                                                         time.Duration
	metrics, plan, planAssert                                    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	o := &options{}
	fs := flag.NewFlagSet("dlrmbench", flag.ContinueOnError)
	fs.StringVar(&o.dataset, "dataset", "kaggle", "kaggle or terabyte")
	cli.Bounded(fs, &o.scale, "scale", 1e-4, math.SmallestNonzeroFloat64, "cardinality scale factor (> 0)")
	cli.Bounded(fs, &o.batch, "batch", 32, 1, "inference batch size")
	cli.Bounded(fs, &o.reps, "reps", 5, 1, "timing repetitions")
	fs.StringVar(&o.techniques, "techniques", "lookup,scan,circuit,dhe,hybrid", "comma list")
	fs.Int64Var(&o.seed, "seed", 1, "PRNG seed (any value)")
	fs.StringVar(&o.criteo, "criteo", "", "optional path to a Criteo-format TSV; its first -batch rows drive the timing instead of synthetic traffic")
	cli.Bounded(fs, &o.coalesce, "coalesce", 0, 0, "serving mode: fuse up to N concurrent single-row requests per backend execution (0: direct Predict timing)")
	cli.Bounded(fs, &o.shards, "shards", 2, 1, "serving mode: replica groups with consistent key routing")
	cli.Bounded(fs, &o.clients, "clients", 64, 1, "serving mode: concurrent single-row clients")
	cli.Bounded(fs, &o.wait, "wait", 2*time.Millisecond, 0, "serving mode: max coalesce wait before a partial batch flushes")
	fs.BoolVar(&o.metrics, "metrics", false, "print an observability snapshot (per-technique counts, latency percentiles) after the runs")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /metrics.json and pprof on this address during the runs")
	fs.StringVar(&o.autotune, "autotune", "on", "probe matmul kernel configs before timing (on/off)")
	fs.BoolVar(&o.plan, "plan", false, "adaptive planner demo: drive a shard-skewed drifting workload and print each per-shard re-plan decision as shards hot-swap techniques independently")
	fs.StringVar(&o.planFile, "plan-file", "", "with -plan: persist/reuse the fitted cost model at this path (a matching file skips the analytic-prior warmup)")
	fs.BoolVar(&o.planAssert, "plan-assert", false, "with -plan: exit non-zero unless ≥2 shards reach distinct techniques at steady state (CI regression mode)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	switch o.autotune {
	case "on":
		tensor.Autotune()
	case "off":
	default:
		fmt.Fprintf(stderr, "-autotune must be on or off, got %q\n", o.autotune)
		return 2
	}

	var reg *obs.Registry
	if o.metrics || o.metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	if o.metricsAddr != "" {
		addr, _, err := obs.Serve(o.metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, "metrics server:", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", addr)
	}

	var cfg dlrm.Config
	switch o.dataset {
	case "kaggle":
		cfg = dlrm.KaggleConfig(data.ScaleCardinalities(data.KaggleCardinalities, o.scale), o.seed)
	case "terabyte":
		cfg = dlrm.TerabyteConfig(data.ScaleCardinalities(data.TerabyteCardinalities, o.scale), o.seed)
	default:
		fmt.Fprintf(stderr, "-dataset must be kaggle or terabyte, got %q\n", o.dataset)
		return 2
	}
	fmt.Fprintf(stdout, "%s miniature (scale %g): %d sparse features, dim %d, max table %d rows\n\n",
		o.dataset, o.scale, len(cfg.Cardinalities), cfg.EmbDim, maxInt(cfg.Cardinalities))

	if o.plan {
		return planDemo(cfg, o, stdout, stderr)
	}

	// An all-DHE-Varied trained model can materialize every representation.
	model := dlrm.New(cfg, dlrm.DHEVariedEmb)
	rng := rand.New(rand.NewSource(o.seed + 7))
	var dense *tensor.Matrix
	var sparse [][]uint64
	if o.criteo != "" {
		f, err := os.Open(o.criteo)
		if err != nil {
			fmt.Fprintln(stderr, "-criteo:", err)
			return 2
		}
		b, err := data.LoadCriteo(f, cfg.Cardinalities, o.batch)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "-criteo:", err)
			return 2
		}
		dense, sparse = b.Dense, b.Sparse
		fmt.Fprintf(stdout, "driving with %d Criteo records from %s\n", dense.Rows, o.criteo)
	} else {
		dense = tensor.NewUniform(o.batch, cfg.DenseDim, 1, rng)
		sparse = make([][]uint64, len(cfg.Cardinalities))
		for f, n := range cfg.Cardinalities {
			sparse[f] = make([]uint64, o.batch)
			for r := range sparse[f] {
				sparse[f][r] = data.ZipfValue(rng, n)
			}
		}
	}

	// Host-profiled threshold for the hybrid allocation (Algorithm 2). In
	// serving mode the generators see fused batches, so profile at the
	// coalesce cap rather than the caller batch.
	profBatch := o.batch
	if o.coalesce > 0 {
		profBatch = o.coalesce
	}
	db := profile.BuildDB(cfg.EmbDim, profile.Varied, []int{profBatch}, []int{1},
		[]int{64, 512, 4096, 32768}, 3, o.seed)
	thr := db.Threshold(profile.ExecConfig{Batch: profBatch, Threads: 1})
	fmt.Fprintf(stdout, "host-profiled scan/DHE threshold at batch %d: %d rows\n\n", profBatch, thr)

	if o.coalesce > 0 {
		if code := serveComparison(model, strings.Split(o.techniques, ","), thr, reg, o, stdout, stderr); code != 0 {
			return code
		}
	} else {
		fmt.Fprintln(stdout, "technique        latency/batch     model memory (MB)")
		for _, name := range strings.Split(o.techniques, ",") {
			p, err := buildPipeline(model, strings.TrimSpace(name), thr, o.seed, reg)
			if err != nil {
				fmt.Fprintln(stderr, "-techniques:", err)
				return 2
			}
			if _, err := p.Predict(dense, sparse); err != nil { // warm-up
				fmt.Fprintln(stderr, "predict:", err)
				return 1
			}
			start := time.Now()
			for i := 0; i < o.reps; i++ {
				p.Predict(dense, sparse)
			}
			lat := time.Since(start) / time.Duration(o.reps)
			fmt.Fprintf(stdout, "%-15s  %14v  %14.2f\n", name, lat, float64(p.NumBytes())/1e6)
		}
	}
	if o.metrics {
		fmt.Fprintln(stdout, "\n--- observability snapshot ---")
		reg.WriteText(stdout)
	}
	return 0
}

// planDemo drives the per-shard adaptive planner with a shard-skewed
// drifting workload over a two-shard table: shard 0 trickles single-row
// lookups while shard 1 soaks large coalesced bursts. Each phase ends with
// a re-plan pass, and the printed per-shard decisions show the
// scan/ORAM/DHE crossover being re-fit independently per shard from live
// latency signals — at steady state the shards converge to *different*
// techniques for the same table, which a table-granular plan cannot
// express. With -plan-file the fitted cost model persists across runs
// (second run's first re-plan predicts from the saved EWMAs instead of the
// analytic priors); with -plan-assert the per-shard split is a CI gate.
// The -plan serving path in cmd/secembd runs the same loop on a timer.
// It returns the exit status.
func planDemo(cfg dlrm.Config, o *options, stdout, stderr io.Writer) int {
	seed, planFile := o.seed, o.planFile
	rows, dim := maxInt(cfg.Cardinalities), cfg.EmbDim
	if rows < 1<<15 {
		// Big-table regime: a tiny miniature would (correctly) pin every
		// shard's plan to the scan and the demo would never cross over.
		rows = 1 << 15
	}
	if dim < 64 {
		// Wide-embedding regime: below ~64 dims the ORAM's per-element cost
		// undercuts DHE's fixed per-id decode floor at every batch size, so
		// the large-batch shard would (correctly) pick circuit too and the
		// per-shard split would never show.
		dim = 64
	}
	const table = "demo"
	const nShards = 2
	build := func(_ int, tech core.Technique) (core.Generator, error) {
		return core.New(tech, rows, dim, core.Options{Seed: seed})
	}
	sws := make([]*planner.Swappable, nShards)
	shards := make([][]*planner.Swappable, nShards)
	for i := range sws {
		gen, err := build(i, core.LinearScanBatched)
		if err != nil {
			panic(err)
		}
		sws[i] = planner.NewSwappable(gen)
		shards[i] = []*planner.Swappable{sws[i]}
	}
	pl := planner.New(planner.Config{
		Hysteresis: 0.05,
		MinDwell:   time.Millisecond, // demo: surface every crossover immediately
	})
	if err := pl.Manage(planner.Table{
		Name: table, Rows: rows, Dim: dim, Build: build,
		Shards: shards, Initial: core.LinearScanBatched,
	}); err != nil {
		panic(err)
	}
	if planFile != "" {
		m, installed, err := profile.InstallCostModelFile(planFile, nil)
		if err != nil {
			fmt.Fprintln(stderr, "-plan-file:", err)
			return 2
		}
		if installed {
			pl.SeedCostModel(m)
			fmt.Fprintf(stdout, "cost model loaded from %s (%d streams) — first re-plan predicts from persisted EWMAs\n",
				planFile, len(m.Entries))
		}
	}

	fmt.Fprintf(stdout, "planner demo: %dx%d table, %d shards starting on scanb; shard 0 trickles single rows, shard 1 soaks bursts\n\n",
		rows, dim, nShards)
	rng := rand.New(rand.NewSource(seed + 13))
	phases := []struct {
		name  string
		batch [nShards]int
		iters int
	}{
		{"skew onset", [nShards]int{2, 256}, 8},
		{"sustained skew", [nShards]int{2, 256}, 12},
		{"steady state", [nShards]int{2, 256}, 12},
	}
	for _, ph := range phases {
		for i := 0; i < ph.iters; i++ {
			for s, sw := range sws {
				// Each shard's key population is the Zipf-skewed ids that
				// consistently route to it — the same consistent-hash
				// partition the serving layer would produce.
				ids := make([]uint64, ph.batch[s])
				for j := range ids {
					ids[j] = data.ZipfValueFiltered(rng, rows, func(id uint64) bool {
						return serving.RouteShard(id, nShards) == s
					})
				}
				if _, err := sw.Generate(ids); err != nil {
					panic(err)
				}
			}
		}
		for _, d := range pl.ReplanNow() {
			printDecision(stdout, ph.name, ph.batch[d.Shard], d)
		}
		fmt.Fprintln(stdout)
	}

	techs, err := pl.ShardTechniques(table)
	if err != nil {
		panic(err)
	}
	distinct := map[core.Technique]bool{}
	keys := make([]string, len(techs))
	for i, t := range techs {
		distinct[t] = true
		keys[i] = t.Key()
	}
	fmt.Fprintf(stdout, "steady state: per-shard plan %v — %d distinct techniques on one table\n", keys, len(distinct))

	if planFile != "" {
		if err := profile.SaveCostModelFile(planFile, pl.ExportCostModel()); err != nil {
			fmt.Fprintln(stderr, "-plan-file save:", err)
			return 2
		}
		fmt.Fprintf(stdout, "cost model saved to %s\n", planFile)
	}
	if o.planAssert && len(distinct) < 2 {
		fmt.Fprintf(stderr, "plan-assert: expected ≥2 distinct per-shard techniques at steady state, got %v\n", keys)
		return 1
	}
	return 0
}

func printDecision(w io.Writer, phase string, batch int, d planner.Decision) {
	costs := make([]string, 0, len(d.PerIDNs))
	for _, tech := range planner.DefaultCandidates() {
		costs = append(costs, fmt.Sprintf("%s=%.0fµs", tech.Key(), d.PerIDNs[tech]/1e3))
	}
	verdict := d.Reason
	if d.Swapped {
		verdict = fmt.Sprintf("SWAP %s→%s (%s)", d.Current.Key(), d.Chosen.Key(), d.Reason)
	}
	fmt.Fprintf(w, "%-16s shard %d  batch %-4d  perID{%s}  %s\n",
		phase, d.Shard, batch, strings.Join(costs, " "), verdict)
}

// serveComparison serves the same concurrent single-row stream twice per
// technique — per-request, then coalesced over sharded replica groups —
// and reports the requests/sec each sustains. It returns the exit status:
// 2 for an unknown technique name, 1 when a request fails.
func serveComparison(m *dlrm.Model, techniques []string, threshold int, reg *obs.Registry, o *options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "serving mode: %d concurrent single-row clients × %d requests, %d replica shard(s), fuse ≤%d\n\n",
		o.clients, o.reps, o.shards, o.coalesce)

	// One single-row request per client, reused across its repetitions:
	// the timed region is pure serving work.
	rng := rand.New(rand.NewSource(o.seed + 11))
	reqs := make([]*backends.DLRMRequest, o.clients)
	for c := range reqs {
		dense := tensor.NewUniform(1, m.Cfg.DenseDim, 1, rng)
		sparse := make([][]uint64, len(m.Cfg.Cardinalities))
		for f, n := range m.Cfg.Cardinalities {
			sparse[f] = []uint64{data.ZipfValue(rng, n)}
		}
		reqs[c] = &backends.DLRMRequest{Dense: dense, Sparse: sparse}
	}

	// drive returns the request rate, or the first failed request's error.
	drive := func(do func(key uint64, r *backends.DLRMRequest) serving.Response) (float64, error) {
		start := time.Now()
		errs := make([]error, o.clients)
		var wg sync.WaitGroup
		for c := 0; c < o.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < o.reps && errs[c] == nil; i++ {
					errs[c] = do(uint64(c), reqs[c]).Err
				}
			}(c)
		}
		wg.Wait()
		rate := float64(o.clients*o.reps) / time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return rate, err
			}
		}
		return rate, nil
	}
	newBackends := func(name string, maxBatch int) ([]serving.Backend, error) {
		bes := make([]serving.Backend, o.shards)
		for i := range bes {
			p, err := buildPipeline(m, name, threshold, o.seed+int64(i), reg)
			if err != nil {
				return nil, err
			}
			bes[i] = backends.NewDLRM(p, maxBatch)
		}
		return bes, nil
	}

	fmt.Fprintln(stdout, "technique        per-request req/s   coalesced req/s   speedup")
	for _, name := range techniques {
		name = strings.TrimSpace(name)
		bes, err := newBackends(name, 1)
		if err != nil {
			fmt.Fprintln(stderr, "-techniques:", err)
			return 2
		}
		pool := serving.NewGroup(bes, serving.GroupConfig{Shards: 1, QueueDepth: o.clients})
		perReq, err := drive(func(_ uint64, r *backends.DLRMRequest) serving.Response {
			return pool.Do(context.Background(), 0, r)
		})
		pool.Close()
		if err != nil {
			fmt.Fprintln(stderr, "serve:", err)
			return 1
		}

		bes, _ = newBackends(name, o.coalesce) // built once above, so the name resolves
		group := serving.NewGroup(bes, serving.GroupConfig{
			Shards:   o.shards,
			Coalesce: serving.CoalesceConfig{MaxWait: o.wait},
		}, serving.WithObserver(reg))
		fused, err := drive(func(key uint64, r *backends.DLRMRequest) serving.Response {
			return group.Do(context.Background(), key, r)
		})
		group.Close()
		if err != nil {
			fmt.Fprintln(stderr, "serve:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-15s  %17.0f  %16.0f  %6.2fx\n", name, perReq, fused, fused/perReq)
	}
	return 0
}

// buildPipeline builds the named technique's pipeline over m: "hybrid"
// splits features by threshold, any other name must parse as a technique.
func buildPipeline(m *dlrm.Model, name string, threshold int, seed int64, reg *obs.Registry) (*dlrm.Pipeline, error) {
	opts := core.Options{Seed: seed, Obs: reg}
	var p *dlrm.Pipeline
	switch name {
	case "hybrid":
		techs := make([]core.Technique, len(m.Cfg.Cardinalities))
		for i, n := range m.Cfg.Cardinalities {
			if n <= threshold {
				techs[i] = core.LinearScan
			} else {
				techs[i] = core.DHE
			}
		}
		p = dlrm.BuildHybrid(m, techs, opts)
	default:
		tech, err := core.ParseTechnique(name)
		if err != nil {
			return nil, err
		}
		p = dlrm.Build(m, tech, opts)
	}
	p.SetObserver(reg)
	return p, nil
}

func maxInt(xs []int) int {
	best := xs[0]
	for _, v := range xs {
		if v > best {
			best = v
		}
	}
	return best
}
