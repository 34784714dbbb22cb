// Command llmbench measures *real wall-clock* LLM generation with this
// repository's transformer and secure token-embedding generators, at a
// host-feasible shape (GPT-2's vocabulary with a reduced trunk by
// default; -layers 24 -dim 1024 runs the full GPT-2-medium shape).
// The paper-machine projections for GPT-2 medium live in
// `cmd/experiments -only fig15`.
//
// With -coalesce N it instead runs the coalesced decode demo: -batch
// independent generation streams, each pinned to one of -shards replica
// pipelines, decode through the serving stack once per-request and once
// with cross-request micro-batching. Fused decode steps hand the embedding
// generator the stream count as its batch — which is what lets the §IV-D
// "dual" technique (DHE + Circuit ORAM behind one threshold) cross into
// its DHE regime at all: per-request decode is forever batch 1.
//
// Usage:
//
//	llmbench [-vocab 50257] [-dim 128] [-layers 2] [-heads 4]
//	         [-prompt 64] [-gen 16] [-batch 1]
//	         [-techniques lookup,scan,circuit,dhe,dual]
//	         [-coalesce 0] [-shards 1] [-dual-threshold 4] [-wait 2ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"secemb/internal/cli"
	"secemb/internal/core"
	"secemb/internal/llm"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds llmbench's flags.
type options struct {
	vocab, dim, layers, heads, prompt, gen, batch, coalesce, shards, dualThreshold int
	techniques, metricsAddr, autotune                                              string
	seed                                                                           int64
	wait                                                                           time.Duration
	metrics                                                                        bool
}

func run(args []string, stdout, stderr io.Writer) int {
	o := &options{}
	fs := flag.NewFlagSet("llmbench", flag.ContinueOnError)
	cli.Bounded(fs, &o.vocab, "vocab", 50257, 1, "vocabulary size")
	cli.Bounded(fs, &o.dim, "dim", 128, 1, "embedding dimension")
	cli.Bounded(fs, &o.layers, "layers", 2, 0, "transformer layers")
	cli.Bounded(fs, &o.heads, "heads", 4, 1, "attention heads (must divide -dim)")
	cli.Bounded(fs, &o.prompt, "prompt", 64, 1, "prompt length (tokens)")
	cli.Bounded(fs, &o.gen, "gen", 16, 0, "tokens to generate")
	cli.Bounded(fs, &o.batch, "batch", 1, 1, "request batch size")
	fs.StringVar(&o.techniques, "techniques", "lookup,scan,circuit,dhe", "comma list (dual: §IV-D DHE+CircuitORAM threshold scheme)")
	fs.Int64Var(&o.seed, "seed", 1, "PRNG seed (any value)")
	cli.Bounded(fs, &o.coalesce, "coalesce", 0, 0, "serving mode: fuse up to N concurrent decode steps per backend execution (0: direct Generate timing)")
	cli.Bounded(fs, &o.shards, "shards", 1, 1, "serving mode: replica pipelines, one per shard (streams pin to shards by key)")
	cli.Bounded(fs, &o.dualThreshold, "dual-threshold", 4, 0, "dual technique: largest embedding batch still served by Circuit ORAM")
	cli.Bounded(fs, &o.wait, "wait", 2*time.Millisecond, 0, "serving mode: max coalesce wait before a partial batch flushes")
	fs.BoolVar(&o.metrics, "metrics", false, "print an observability snapshot after the runs")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and pprof on this address during the runs")
	fs.StringVar(&o.autotune, "autotune", "on", "probe matmul kernel configs before timing (on/off)")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if o.dim%o.heads != 0 {
		fmt.Fprintf(stderr, "-heads must divide -dim %d, got %d\n", o.dim, o.heads)
		return 2
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

	cfg := llm.Config{
		Vocab: o.vocab, Dim: o.dim, Heads: o.heads, Layers: o.layers,
		MaxSeq: o.prompt + o.gen + 1, Seed: o.seed,
	}
	fmt.Fprintf(stdout, "transformer: vocab %d, dim %d, %d layers; prompt %d, generate %d, batch %d\n\n",
		cfg.Vocab, cfg.Dim, cfg.Layers, o.prompt, o.gen, o.batch)

	rng := rand.New(rand.NewSource(o.seed + 3))
	table := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rng)
	prompts := make([][]int, o.batch)
	for b := range prompts {
		prompts[b] = make([]int, o.prompt)
		for i := range prompts[b] {
			prompts[b][i] = rng.Intn(cfg.Vocab)
		}
	}

	if o.coalesce > 0 {
		if err := serveDecode(cfg, table, strings.Split(o.techniques, ","), prompts, reg, o, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, "technique   TTFT (prefill)   TBT (decode)   emb memory (MB)")
		for _, name := range strings.Split(o.techniques, ",") {
			g, err := buildGenerator(strings.TrimSpace(name), table, cfg, o.seed, o.dualThreshold, reg)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			p := llm.NewRandomPipeline(cfg, g)
			s, _, err := p.Generate(prompts, o.gen)
			if err != nil {
				fmt.Fprintln(stderr, "generate:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%-10s  %14v  %13v  %14.2f\n",
				name, s.PrefillTime, s.MeanDecodeTime(), float64(g.NumBytes())/1e6)
		}
		fmt.Fprintln(stdout, "\npaper Fig. 15 shape: DHE leads prefill; Circuit ORAM is competitive only at decode batch 1")
	}
	if o.metrics {
		fmt.Fprintln(stdout, "\n--- observability snapshot ---")
		reg.WriteText(stdout)
	}
	return 0
}

// buildGenerator resolves one -techniques entry at the model's shape: the
// storage techniques serve table, DHE and dual use the token-embedding
// architecture (dual's ORAM table is materialized from its DHE).
func buildGenerator(name string, table *tensor.Matrix, cfg llm.Config, seed int64, dualThreshold int, reg *obs.Registry) (core.Generator, error) {
	return core.NewByKey(name, cfg.Vocab, cfg.Dim, dualThreshold,
		core.Options{Seed: seed, Table: table, DHEArch: core.ArchLLM, Obs: reg})
}

// serveDecode prefills one single-sequence session per prompt, pins each
// to a replica shard, and decodes every stream's tokens through the
// serving stack — per-request, then coalesced — reporting the decode
// tokens/sec each sustains. Coalescing is what raises the embedding batch
// above 1: a fused step hands the generator one id per participating
// stream, which for "dual" is the difference between its Circuit ORAM and
// DHE regimes.
func serveDecode(cfg llm.Config, table *tensor.Matrix, techniques []string, prompts [][]int, reg *obs.Registry, o *options, stdout io.Writer) error {
	streams, steps := len(prompts), o.gen
	fmt.Fprintf(stdout, "serving mode: %d decode stream(s) × %d tokens, %d replica shard(s), fuse ≤%d\n\n",
		streams, steps, o.shards, o.coalesce)
	if streams < 2 {
		fmt.Fprintln(stdout, "note: with -batch 1 there is a single stream and nothing to fuse; try -batch 8")
	}

	fmt.Fprintln(stdout, "technique   per-request tok/s   coalesced tok/s   speedup")
	for _, name := range techniques {
		name = strings.TrimSpace(name)
		// One pipeline per shard, all replicas of the same model: the
		// random trunk is seeded by cfg.Seed and the generators share seed
		// and table, so every shard serves identical weights.
		pipes := make([]*llm.Pipeline, o.shards)
		var dual *core.Dual
		for i := range pipes {
			g, err := buildGenerator(name, table, cfg, o.seed, o.dualThreshold, reg)
			if err != nil {
				return err
			}
			if d, ok := g.(*core.Dual); ok {
				dual = d
			}
			pipes[i] = llm.NewRandomPipeline(cfg, g)
		}

		// run returns the decode rate, or the first failed step's error.
		run := func(maxBatch int) (float64, error) {
			// Per-shard stream counts size each backend's fused batch so
			// full-stride decode steps flush on full, not on the timer.
			perShard := make([]int, o.shards)
			for s := 0; s < streams; s++ {
				perShard[serving.RouteShard(uint64(s), o.shards)]++
			}
			bes := make([]serving.Backend, o.shards)
			for i := range bes {
				bes[i] = backends.NewLLMDecode(pipes[i], max(min(perShard[i], maxBatch), 1))
			}
			group := serving.NewGroup(bes, serving.GroupConfig{
				Shards:   o.shards,
				Coalesce: serving.CoalesceConfig{MaxWait: o.wait},
			}, serving.WithObserver(reg))
			defer group.Close()

			// Fresh sessions per run: prefill directly on the pinned
			// replica, then decode through the group.
			sessions := make([]*llm.Session, streams)
			next := make([]int, streams)
			for s := range sessions {
				p := pipes[group.ShardOf(uint64(s))]
				sess := p.NewSession(1)
				logits, err := sess.Prefill([][]int{prompts[s]})
				if err != nil {
					return 0, fmt.Errorf("prefill: %w", err)
				}
				sessions[s] = sess
				next[s] = llm.GreedyNext(logits)[0]
			}

			start := time.Now()
			errs := make([]error, streams)
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					tok := next[s]
					for i := 0; i < steps; i++ {
						resp := group.Do(context.Background(), uint64(s),
							&backends.LLMDecodeRequest{Session: sessions[s], Token: tok})
						if resp.Err != nil {
							errs[s] = fmt.Errorf("decode: %w", resp.Err)
							return
						}
						tok = llm.GreedyNext(resp.Value.(*tensor.Matrix))[0]
					}
				}(s)
			}
			wg.Wait()
			rate := float64(streams*steps) / time.Since(start).Seconds()
			for _, err := range errs {
				if err != nil {
					return rate, err
				}
			}
			return rate, nil
		}

		perReq, err := run(1)
		if err != nil {
			return err
		}
		fused, err := run(o.coalesce)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-10s  %17.0f  %16.0f  %6.2fx\n", name, perReq, fused, fused/perReq)
		if dual != nil {
			fmt.Fprintf(stdout, "            dual regimes: per-request batch 1 → %v, fused batch %d → %v\n",
				dual.Active(1), min(streams, o.coalesce), dual.Active(min(streams, o.coalesce)))
		}
	}
	return nil
}
