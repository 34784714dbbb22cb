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
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"secemb/internal/core"
	"secemb/internal/llm"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

func main() {
	vocab := flag.Int("vocab", 50257, "vocabulary size")
	dim := flag.Int("dim", 128, "embedding dimension")
	layers := flag.Int("layers", 2, "transformer layers")
	heads := flag.Int("heads", 4, "attention heads")
	prompt := flag.Int("prompt", 64, "prompt length (tokens)")
	gen := flag.Int("gen", 16, "tokens to generate")
	batch := flag.Int("batch", 1, "request batch size")
	techniques := flag.String("techniques", "lookup,scan,circuit,dhe", "comma list (dual: §IV-D DHE+CircuitORAM threshold scheme)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	coalesce := flag.Int("coalesce", 0, "serving mode: fuse up to N concurrent decode steps per backend execution (0: direct Generate timing)")
	shards := flag.Int("shards", 1, "serving mode: replica pipelines, one per shard (streams pin to shards by key)")
	dualThreshold := flag.Int("dual-threshold", 4, "dual technique: largest embedding batch still served by Circuit ORAM")
	wait := flag.Duration("wait", 2*time.Millisecond, "serving mode: max coalesce wait before a partial batch flushes")
	metrics := flag.Bool("metrics", false, "print an observability snapshot after the runs")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and pprof on this address during the runs")
	autotune := flag.String("autotune", "on", "probe matmul kernel configs before timing (on/off)")
	flag.Parse()

	switch {
	case *vocab < 1:
		fmt.Fprintf(os.Stderr, "-vocab must be at least 1, got %d\n", *vocab)
		os.Exit(2)
	case *dim < 1:
		fmt.Fprintf(os.Stderr, "-dim must be at least 1, got %d\n", *dim)
		os.Exit(2)
	case *heads < 1 || *dim%*heads != 0:
		fmt.Fprintf(os.Stderr, "-heads must divide -dim %d, got %d\n", *dim, *heads)
		os.Exit(2)
	case *layers < 0:
		fmt.Fprintf(os.Stderr, "-layers must not be negative, got %d\n", *layers)
		os.Exit(2)
	case *prompt < 1:
		fmt.Fprintf(os.Stderr, "-prompt must be at least 1, got %d\n", *prompt)
		os.Exit(2)
	case *gen < 0:
		fmt.Fprintf(os.Stderr, "-gen must not be negative, got %d\n", *gen)
		os.Exit(2)
	case *batch < 1:
		fmt.Fprintf(os.Stderr, "-batch must be at least 1, got %d\n", *batch)
		os.Exit(2)
	case *shards < 1:
		fmt.Fprintf(os.Stderr, "-shards must be at least 1, got %d\n", *shards)
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

	cfg := llm.Config{
		Vocab: *vocab, Dim: *dim, Heads: *heads, Layers: *layers,
		MaxSeq: *prompt + *gen + 1, Seed: *seed,
	}
	fmt.Printf("transformer: vocab %d, dim %d, %d layers; prompt %d, generate %d, batch %d\n\n",
		cfg.Vocab, cfg.Dim, cfg.Layers, *prompt, *gen, *batch)

	rng := rand.New(rand.NewSource(*seed + 3))
	table := tensor.NewGaussian(cfg.Vocab, cfg.Dim, 0.02, rng)
	prompts := make([][]int, *batch)
	for b := range prompts {
		prompts[b] = make([]int, *prompt)
		for i := range prompts[b] {
			prompts[b][i] = rng.Intn(cfg.Vocab)
		}
	}

	if *coalesce > 0 {
		serveDecode(cfg, table, strings.Split(*techniques, ","), prompts, *gen, *seed, reg, decodeLoad{
			coalesce: *coalesce, shards: *shards, threshold: *dualThreshold, wait: *wait,
		})
		if *metrics {
			fmt.Println("\n--- observability snapshot ---")
			reg.WriteText(os.Stdout)
		}
		return
	}

	fmt.Println("technique   TTFT (prefill)   TBT (decode)   emb memory (MB)")
	for _, name := range strings.Split(*techniques, ",") {
		g, err := buildGenerator(strings.TrimSpace(name), table, cfg, *seed, *dualThreshold, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p := llm.NewRandomPipeline(cfg, g)
		s, _, err := p.Generate(prompts, *gen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "generate:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10s  %14v  %13v  %14.2f\n",
			name, s.PrefillTime, s.MeanDecodeTime(), float64(g.NumBytes())/1e6)
	}
	fmt.Println("\npaper Fig. 15 shape: DHE leads prefill; Circuit ORAM is competitive only at decode batch 1")
	if *metrics {
		fmt.Println("\n--- observability snapshot ---")
		reg.WriteText(os.Stdout)
	}
}

// buildGenerator resolves one -techniques entry at the model's shape: the
// storage techniques serve table, DHE and dual use the token-embedding
// architecture (dual's ORAM table is materialized from its DHE).
func buildGenerator(name string, table *tensor.Matrix, cfg llm.Config, seed int64, dualThreshold int, reg *obs.Registry) (core.Generator, error) {
	return core.NewByKey(name, cfg.Vocab, cfg.Dim, dualThreshold,
		core.Options{Seed: seed, Table: table, DHEArch: core.ArchLLM, Obs: reg})
}

// decodeLoad is the serving-mode workload shape.
type decodeLoad struct {
	coalesce, shards, threshold int
	wait                        time.Duration
}

// serveDecode prefills one single-sequence session per prompt, pins each
// to a replica shard, and decodes every stream's tokens through the
// serving stack — per-request, then coalesced — reporting the decode
// tokens/sec each sustains. Coalescing is what raises the embedding batch
// above 1: a fused step hands the generator one id per participating
// stream, which for "dual" is the difference between its Circuit ORAM and
// DHE regimes.
func serveDecode(cfg llm.Config, table *tensor.Matrix, techniques []string, prompts [][]int, steps int, seed int64, reg *obs.Registry, load decodeLoad) {
	streams := len(prompts)
	fmt.Printf("serving mode: %d decode stream(s) × %d tokens, %d replica shard(s), fuse ≤%d\n\n",
		streams, steps, load.shards, load.coalesce)
	if streams < 2 {
		fmt.Println("note: with -batch 1 there is a single stream and nothing to fuse; try -batch 8")
	}

	fmt.Println("technique   per-request tok/s   coalesced tok/s   speedup")
	for _, name := range techniques {
		name = strings.TrimSpace(name)
		// One pipeline per shard, all replicas of the same model: the
		// random trunk is seeded by cfg.Seed and the generators share seed
		// and table, so every shard serves identical weights.
		pipes := make([]*llm.Pipeline, load.shards)
		var dual *core.Dual
		for i := range pipes {
			g, err := buildGenerator(name, table, cfg, seed, load.threshold, reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if d, ok := g.(*core.Dual); ok {
				dual = d
			}
			pipes[i] = llm.NewRandomPipeline(cfg, g)
		}

		run := func(maxBatch int) float64 {
			// Per-shard stream counts size each backend's fused batch so
			// full-stride decode steps flush on full, not on the timer.
			perShard := make([]int, load.shards)
			for s := 0; s < streams; s++ {
				perShard[serving.RouteShard(uint64(s), load.shards)]++
			}
			bes := make([]serving.Backend, load.shards)
			for i := range bes {
				bes[i] = backends.NewLLMDecode(pipes[i], max(min(perShard[i], maxBatch), 1))
			}
			group := serving.NewGroup(bes, serving.GroupConfig{
				Shards:   load.shards,
				Coalesce: serving.CoalesceConfig{MaxWait: load.wait},
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
					fmt.Fprintln(os.Stderr, "prefill:", err)
					os.Exit(1)
				}
				sessions[s] = sess
				next[s] = llm.GreedyNext(logits)[0]
			}

			start := time.Now()
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
							fmt.Fprintln(os.Stderr, "decode:", resp.Err)
							os.Exit(1)
						}
						tok = llm.GreedyNext(resp.Value.(*tensor.Matrix))[0]
					}
				}(s)
			}
			wg.Wait()
			return float64(streams*steps) / time.Since(start).Seconds()
		}

		perReq := run(1)
		fused := run(load.coalesce)
		fmt.Printf("%-10s  %17.0f  %16.0f  %6.2fx\n", name, perReq, fused, fused/perReq)
		if dual != nil {
			fmt.Printf("            dual regimes: per-request batch 1 → %v, fused batch %d → %v\n",
				dual.Active(1), min(streams, load.coalesce), dual.Active(min(streams, load.coalesce)))
		}
	}
}
