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
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

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
	dataset := flag.String("dataset", "kaggle", "kaggle or terabyte")
	scale := flag.Float64("scale", 1e-4, "cardinality scale factor")
	batch := flag.Int("batch", 32, "inference batch size")
	reps := flag.Int("reps", 5, "timing repetitions")
	techniques := flag.String("techniques", "lookup,scan,circuit,dhe,hybrid", "comma list")
	seed := flag.Int64("seed", 1, "PRNG seed")
	criteo := flag.String("criteo", "", "optional path to a Criteo-format TSV; its first -batch rows drive the timing instead of synthetic traffic")
	coalesce := flag.Int("coalesce", 0, "serving mode: fuse up to N concurrent single-row requests per backend execution (0: direct Predict timing)")
	shards := flag.Int("shards", 2, "serving mode: replica groups with consistent key routing")
	clients := flag.Int("clients", 64, "serving mode: concurrent single-row clients")
	wait := flag.Duration("wait", 2*time.Millisecond, "serving mode: max coalesce wait before a partial batch flushes")
	metrics := flag.Bool("metrics", false, "print an observability snapshot (per-technique counts, latency percentiles) after the runs")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and pprof on this address during the runs")
	autotune := flag.String("autotune", "on", "probe matmul kernel configs before timing (on/off)")
	plan := flag.Bool("plan", false, "adaptive planner demo: drive a shard-skewed drifting workload and print each per-shard re-plan decision as shards hot-swap techniques independently")
	planFile := flag.String("plan-file", "", "with -plan: persist/reuse the fitted cost model at this path (a matching file skips the analytic-prior warmup)")
	planAssert := flag.Bool("plan-assert", false, "with -plan: exit non-zero unless ≥2 shards reach distinct techniques at steady state (CI regression mode)")
	flag.Parse()

	switch {
	case !(*scale > 0):
		fmt.Fprintf(os.Stderr, "-scale must be positive, got %g\n", *scale)
		os.Exit(2)
	case *reps < 1:
		fmt.Fprintf(os.Stderr, "-reps must be at least 1, got %d\n", *reps)
		os.Exit(2)
	case *batch < 1:
		fmt.Fprintf(os.Stderr, "-batch must be at least 1, got %d\n", *batch)
		os.Exit(2)
	case *shards < 1:
		fmt.Fprintf(os.Stderr, "-shards must be at least 1, got %d\n", *shards)
		os.Exit(2)
	case *clients < 1:
		fmt.Fprintf(os.Stderr, "-clients must be at least 1, got %d\n", *clients)
		os.Exit(2)
	case *coalesce < 0:
		fmt.Fprintf(os.Stderr, "-coalesce must not be negative, got %d\n", *coalesce)
		os.Exit(2)
	case *wait < 0:
		fmt.Fprintf(os.Stderr, "-wait must not be negative, got %v\n", *wait)
		os.Exit(2)
	}
	switch *autotune {
	case "on":
		tensor.Autotune()
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "-autotune must be on or off, got %q\n", *autotune)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metrics || *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	if *metricsAddr != "" {
		addr, _, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics server:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}

	var cfg dlrm.Config
	switch *dataset {
	case "kaggle":
		cfg = dlrm.KaggleConfig(data.ScaleCardinalities(data.KaggleCardinalities, *scale), *seed)
	case "terabyte":
		cfg = dlrm.TerabyteConfig(data.ScaleCardinalities(data.TerabyteCardinalities, *scale), *seed)
	default:
		fmt.Fprintf(os.Stderr, "-dataset must be kaggle or terabyte, got %q\n", *dataset)
		os.Exit(2)
	}
	fmt.Printf("%s miniature (scale %g): %d sparse features, dim %d, max table %d rows\n\n",
		*dataset, *scale, len(cfg.Cardinalities), cfg.EmbDim, maxInt(cfg.Cardinalities))

	if *plan {
		planDemo(cfg, *seed, *planFile, *planAssert)
		return
	}

	// An all-DHE-Varied trained model can materialize every representation.
	model := dlrm.New(cfg, dlrm.DHEVariedEmb)
	rng := rand.New(rand.NewSource(*seed + 7))
	var dense *tensor.Matrix
	var sparse [][]uint64
	if *criteo != "" {
		f, err := os.Open(*criteo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-criteo:", err)
			os.Exit(2)
		}
		b, err := data.LoadCriteo(f, cfg.Cardinalities, *batch)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "-criteo:", err)
			os.Exit(2)
		}
		dense, sparse = b.Dense, b.Sparse
		fmt.Printf("driving with %d Criteo records from %s\n", dense.Rows, *criteo)
	} else {
		dense = tensor.NewUniform(*batch, cfg.DenseDim, 1, rng)
		sparse = make([][]uint64, len(cfg.Cardinalities))
		for f, n := range cfg.Cardinalities {
			sparse[f] = make([]uint64, *batch)
			for r := range sparse[f] {
				sparse[f][r] = data.ZipfValue(rng, n)
			}
		}
	}

	// Host-profiled threshold for the hybrid allocation (Algorithm 2). In
	// serving mode the generators see fused batches, so profile at the
	// coalesce cap rather than the caller batch.
	profBatch := *batch
	if *coalesce > 0 {
		profBatch = *coalesce
	}
	db := profile.BuildDB(cfg.EmbDim, profile.Varied, []int{profBatch}, []int{1},
		[]int{64, 512, 4096, 32768}, 3, *seed)
	thr := db.Threshold(profile.ExecConfig{Batch: profBatch, Threads: 1})
	fmt.Printf("host-profiled scan/DHE threshold at batch %d: %d rows\n\n", profBatch, thr)

	if *coalesce > 0 {
		if err := serveComparison(model, strings.Split(*techniques, ","), thr, *seed, reg, serveLoad{
			coalesce: *coalesce, shards: *shards, clients: *clients,
			reps: *reps, wait: *wait,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "-techniques:", err)
			os.Exit(2)
		}
		if *metrics {
			fmt.Println("\n--- observability snapshot ---")
			reg.WriteText(os.Stdout)
		}
		return
	}

	fmt.Println("technique        latency/batch     model memory (MB)")
	for _, name := range strings.Split(*techniques, ",") {
		p, err := buildPipeline(model, strings.TrimSpace(name), thr, *seed, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-techniques:", err)
			os.Exit(2)
		}
		if _, err := p.Predict(dense, sparse); err != nil { // warm-up
			fmt.Fprintln(os.Stderr, "predict:", err)
			os.Exit(1)
		}
		start := time.Now()
		for i := 0; i < *reps; i++ {
			p.Predict(dense, sparse)
		}
		lat := time.Since(start) / time.Duration(*reps)
		fmt.Printf("%-15s  %14v  %14.2f\n", name, lat, float64(p.NumBytes())/1e6)
	}
	if *metrics {
		fmt.Println("\n--- observability snapshot ---")
		reg.WriteText(os.Stdout)
	}
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
func planDemo(cfg dlrm.Config, seed int64, planFile string, assert bool) {
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
			fmt.Fprintln(os.Stderr, "-plan-file:", err)
			os.Exit(2)
		}
		if installed {
			pl.SeedCostModel(m)
			fmt.Printf("cost model loaded from %s (%d streams) — first re-plan predicts from persisted EWMAs\n",
				planFile, len(m.Entries))
		}
	}

	fmt.Printf("planner demo: %dx%d table, %d shards starting on scanb; shard 0 trickles single rows, shard 1 soaks bursts\n\n",
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
			printDecision(ph.name, ph.batch[d.Shard], d)
		}
		fmt.Println()
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
	fmt.Printf("steady state: per-shard plan %v — %d distinct techniques on one table\n", keys, len(distinct))

	if planFile != "" {
		if err := profile.SaveCostModelFile(planFile, pl.ExportCostModel()); err != nil {
			fmt.Fprintln(os.Stderr, "-plan-file save:", err)
			os.Exit(2)
		}
		fmt.Printf("cost model saved to %s\n", planFile)
	}
	if assert && len(distinct) < 2 {
		fmt.Fprintf(os.Stderr, "plan-assert: expected ≥2 distinct per-shard techniques at steady state, got %v\n", keys)
		os.Exit(1)
	}
}

func printDecision(phase string, batch int, d planner.Decision) {
	costs := make([]string, 0, len(d.PerIDNs))
	for _, tech := range planner.DefaultCandidates() {
		costs = append(costs, fmt.Sprintf("%s=%.0fµs", tech.Key(), d.PerIDNs[tech]/1e3))
	}
	verdict := d.Reason
	if d.Swapped {
		verdict = fmt.Sprintf("SWAP %s→%s (%s)", d.Current.Key(), d.Chosen.Key(), d.Reason)
	}
	fmt.Printf("%-16s shard %d  batch %-4d  perID{%s}  %s\n",
		phase, d.Shard, batch, strings.Join(costs, " "), verdict)
}

// serveLoad is the serving-mode workload shape.
type serveLoad struct {
	coalesce, shards, clients, reps int
	wait                            time.Duration
}

// serveComparison serves the same concurrent single-row stream twice per
// technique — per-request, then coalesced over sharded replica groups —
// and reports the requests/sec each sustains. It fails on an unknown
// technique name.
func serveComparison(m *dlrm.Model, techniques []string, threshold int, seed int64, reg *obs.Registry, load serveLoad) error {
	fmt.Printf("serving mode: %d concurrent single-row clients × %d requests, %d replica shard(s), fuse ≤%d\n\n",
		load.clients, load.reps, load.shards, load.coalesce)

	// One single-row request per client, reused across its repetitions:
	// the timed region is pure serving work.
	rng := rand.New(rand.NewSource(seed + 11))
	reqs := make([]*backends.DLRMRequest, load.clients)
	for c := range reqs {
		dense := tensor.NewUniform(1, m.Cfg.DenseDim, 1, rng)
		sparse := make([][]uint64, len(m.Cfg.Cardinalities))
		for f, n := range m.Cfg.Cardinalities {
			sparse[f] = []uint64{data.ZipfValue(rng, n)}
		}
		reqs[c] = &backends.DLRMRequest{Dense: dense, Sparse: sparse}
	}

	drive := func(do func(key uint64, r *backends.DLRMRequest) serving.Response) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < load.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < load.reps; i++ {
					if resp := do(uint64(c), reqs[c]); resp.Err != nil {
						fmt.Fprintln(os.Stderr, "serve:", resp.Err)
						os.Exit(1)
					}
				}
			}(c)
		}
		wg.Wait()
		return float64(load.clients*load.reps) / time.Since(start).Seconds()
	}
	newBackends := func(name string, maxBatch int) ([]serving.Backend, error) {
		bes := make([]serving.Backend, load.shards)
		for i := range bes {
			p, err := buildPipeline(m, name, threshold, seed+int64(i), reg)
			if err != nil {
				return nil, err
			}
			bes[i] = backends.NewDLRM(p, maxBatch)
		}
		return bes, nil
	}

	fmt.Println("technique        per-request req/s   coalesced req/s   speedup")
	for _, name := range techniques {
		name = strings.TrimSpace(name)
		bes, err := newBackends(name, 1)
		if err != nil {
			return err
		}
		pool := serving.NewGroup(bes, serving.GroupConfig{Shards: 1, QueueDepth: load.clients})
		perReq := drive(func(_ uint64, r *backends.DLRMRequest) serving.Response {
			return pool.Do(context.Background(), 0, r)
		})
		pool.Close()

		if bes, err = newBackends(name, load.coalesce); err != nil {
			return err
		}
		group := serving.NewGroup(bes, serving.GroupConfig{
			Shards:   load.shards,
			Coalesce: serving.CoalesceConfig{MaxWait: load.wait},
		}, serving.WithObserver(reg))
		fused := drive(func(key uint64, r *backends.DLRMRequest) serving.Response {
			return group.Do(context.Background(), key, r)
		})
		group.Close()
		fmt.Printf("%-15s  %17.0f  %16.0f  %6.2fx\n", name, perReq, fused, fused/perReq)
	}
	return nil
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
