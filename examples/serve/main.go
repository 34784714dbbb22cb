// Serve: production-shaped deployment. Builds N replicas of a
// hybrid-protected DLRM, serves a concurrent request stream through the
// layered serving stack — generic backends, cross-request micro-batching,
// sharded replica groups — and reports its own end-to-end latency
// percentiles, queue wait included, against an SLA
// (the deployment shape of the paper's co-location study, §IV-C2,
// Fig. 13). It serves the same stream twice: once per-request (one
// shard, coalescing off) and once coalesced, showing the batch-amortization
// the paper's Figure 5 promises arriving end-to-end.
//
//	go run ./examples/serve [-shards 3] [-coalesce 16] [-wait 2ms]
//	                        [-metrics] [-metrics-addr :0]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"secemb/internal/cli"
	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/dlrm"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	const replicas, requests, batch = 3, 60, 8
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var shards, coalesce int
	var wait time.Duration
	cli.Bounded(fs, &shards, "shards", 3, 1, "replica groups (consistent key routing; ≤ replicas, 3)", replicas)
	cli.Bounded(fs, &coalesce, "coalesce", 16, 1, "max requests fused per backend execution")
	cli.Bounded(fs, &wait, "wait", 2*time.Millisecond, 0, "max coalesce wait before a partial batch flushes")
	metrics := fs.Bool("metrics", false, "print an observability snapshot after serving")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and pprof on this address")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}

	reg := obs.NewRegistry()
	tensor.SetObserver(reg) // tensor_pool_* gauges: matmul worker-pool utilization
	if *metricsAddr != "" {
		addr, _, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(stderr, "metrics server:", err)
			return 1
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", addr)
	}
	cards := data.ScaleCardinalities(data.KaggleCardinalities, 2e-5)
	cfg := dlrm.Config{
		DenseDim: 13, EmbDim: 16,
		BottomHidden: []int{32}, TopHidden: []int{32},
		Cardinalities: cards, Seed: 21,
	}
	reps := make([]core.TrainableRep, len(cards))
	rng := rand.New(rand.NewSource(22))
	for i, n := range cards {
		reps[i] = core.NewDHERep(dhe.New(dhe.Config{K: 48, Hidden: []int{24}, Dim: 16, Seed: int64(i)}, rng), n)
	}
	model := dlrm.NewWithReps(cfg, reps)

	// Hybrid allocation: small features scan, large ones DHE.
	techs := make([]core.Technique, len(cards))
	for i, n := range cards {
		if n <= 64 {
			techs[i] = core.LinearScan
		} else {
			techs[i] = core.DHE
		}
	}
	newBackends := func(seedBase int64, maxBatch int) []serving.Backend {
		bes := make([]serving.Backend, replicas)
		for i := range bes {
			p := dlrm.BuildHybrid(model, techs, core.Options{Seed: seedBase + int64(i), Obs: reg})
			p.SetObserver(reg)
			bes[i] = backends.NewDLRM(p, maxBatch)
		}
		return bes
	}
	fmt.Fprintf(stdout, "serving mini-Kaggle DLRM: %d replicas, %d shard(s), hybrid protection\n\n",
		replicas, shards)

	// pass is one run of the stream, timed by the caller: each latency is
	// one Do end to end, queue wait included.
	type pass struct {
		lat  []time.Duration
		rate float64 // requests per second over the whole pass
	}
	drive := func(do func(key uint64, dense *tensor.Matrix, sparse [][]uint64) serving.Response) pass {
		lat := make([]time.Duration, requests)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				dense := tensor.NewUniform(batch, cfg.DenseDim, 1, r)
				sparse := make([][]uint64, len(cards))
				for f, n := range cards {
					sparse[f] = make([]uint64, batch)
					for j := range sparse[f] {
						sparse[f][j] = data.ZipfValue(r, n)
					}
				}
				t0 := time.Now()
				resp := do(uint64(seed), dense, sparse)
				lat[seed] = time.Since(t0)
				if resp.Err != nil {
					fmt.Fprintln(stdout, "request failed:", resp.Err)
				}
			}(int64(i))
		}
		wg.Wait()
		return pass{lat, float64(requests) / time.Since(start).Seconds()}
	}
	report := func(label string, r pass, s serving.Stats) {
		const sla = 20 * time.Millisecond
		slices.Sort(r.lat)
		q := func(p float64) time.Duration { return r.lat[min(int(p*requests), requests-1)] }
		fmt.Fprintf(stdout, "%s: served %d at %.0f req/s (shed %d, abandoned %d)\n",
			label, s.Served, r.rate, s.Shed, s.Abandoned)
		fmt.Fprintf(stdout, "  latency p50 %v, p95 %v, p99 %v, max %v — meets %v SLA: %v\n",
			q(0.50), q(0.95), q(0.99), r.lat[requests-1], sla, q(0.95) <= sla)
	}

	// Baseline: one request per backend execution (backends with cap 1).
	pool := serving.NewGroup(newBackends(30, 1), serving.GroupConfig{Shards: 1, QueueDepth: 2 * replicas})
	base := drive(func(_ uint64, dense *tensor.Matrix, sparse [][]uint64) serving.Response {
		return pool.Do(context.Background(), 0, &backends.DLRMRequest{Dense: dense, Sparse: sparse})
	})
	pool.Close()
	report("per-request", base, pool.Stats())

	// Layered stack: sharded replica groups with cross-request coalescing.
	group := serving.NewGroup(newBackends(60, coalesce), serving.GroupConfig{
		Shards:   shards,
		Coalesce: serving.CoalesceConfig{MaxWait: wait},
	}, serving.WithObserver(reg))
	coal := drive(func(key uint64, dense *tensor.Matrix, sparse [][]uint64) serving.Response {
		return group.Do(context.Background(), key, &backends.DLRMRequest{Dense: dense, Sparse: sparse})
	})
	group.Close()
	report(fmt.Sprintf("coalesced (≤%d/batch, %v wait)", coalesce, wait), coal, group.Stats())
	fmt.Fprintf(stdout, "\ncoalescing speedup: %.2fx requests/s\n", coal.rate/base.rate)

	if *metrics {
		fmt.Fprintln(stdout, "\n--- observability snapshot ---")
		reg.WriteText(stdout)
	}
	return 0
}
