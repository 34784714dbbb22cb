package experiments

import (
	"fmt"
	"math"

	"secemb/internal/cache"
	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/perf"
)

// Fig2 reproduces the taxonomy comparison of Figure 2: normalized latency
// and memory footprint of storage vs computation-based embedding
// generation for a representative DLRM feature (1e6 rows, dim 64,
// batch 32), plus the secure variants.
func Fig2() Report {
	const rows, dim, batch = 1_000_000, 64, 32
	p := perf.IceLake(1)
	look := p.LookupNs(dim, batch)
	lookMem := float64(rows) * dim * 4

	r := Report{
		ID:      "fig2",
		Title:   "Embedding generation methods, normalized to table lookup (1e6 rows, dim 64, batch 32)",
		Headers: []string{"method", "secure", "latency (norm)", "memory (norm)"},
	}
	type row struct {
		name   string
		secure string
		ns     float64
		mem    float64
	}
	uni := dhe.UniformConfig(dim, 1)
	dheMem := float64(dheBytes(uni))
	for _, e := range []row{
		{"Table: index lookup", "no", look, lookMem},
		{"Table: linear scan", "yes", p.ScanNs(rows, dim, batch), lookMem},
		{"Table: Circuit ORAM", "yes", p.CircuitNs(rows, dim, batch), float64(circuitBytes(rows, dim))},
		{"DHE (Uniform)", "yes", p.DHENs(uni, batch), dheMem},
	} {
		r.AddRow(e.name, e.secure,
			fmt.Sprintf("%.1f", e.ns/look),
			fmt.Sprintf("%.3f", e.mem/lookMem))
	}
	r.AddNote("paper Figure 2: lookup is fastest but insecure; DHE trades compute for a tiny footprint")
	return r
}

// Fig3 runs the cache side-channel attack of §III (Figure 3): per-
// eviction-set probe latency against the unprotected lookup, recovering
// the victim index, then against the protected linear scan.
func Fig3() Report {
	v := &cache.Victim{Base: 0, NumRows: 256, LinesPerRow: 4, Cache: cache.New(cache.DefaultConfig())}
	a := cache.NewAttacker(v, 25)
	const victimIdx = 2 // "the actual victim index is 2" (Fig. 3 caption)
	leaky := a.Run(victimIdx, 10, 0, v.Lookup, nil)
	protected := a.Run(victimIdx, 10, 0, v.LinearScan, nil)

	r := Report{
		ID:      "fig3",
		Title:   "Cache attack: avg probe latency per eviction set (victim index = 2, 10 trials)",
		Headers: []string{"eviction set", "lookup (cycles)", "linear scan (cycles)"},
	}
	for i := range leaky.Latency {
		r.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.0f", leaky.Latency[i]),
			fmt.Sprintf("%.0f", protected.Latency[i]))
	}
	r.AddNote("attack guess against lookup: index %d (correct: %d)", leaky.Guess(), victimIdx)
	r.AddNote("against linear scan the profile is flat: every set shows identical latency")
	return r
}

// Fig4 reproduces the latency-vs-table-size curves (Figure 4) for
// embedding dims 16 and 64 at batch 32, 1 thread, under the Ice Lake
// platform model.
func Fig4(quick bool) Report {
	sizes := []int{100, 1000, 10_000, 100_000, 1_000_000, 10_000_000}
	if quick {
		sizes = []int{100, 10_000, 1_000_000}
	}
	p := perf.IceLake(1)
	const batch = 32
	r := Report{
		ID:    "fig4",
		Title: "Secure embedding generation latency (ms per batch of 32, 1 thread)",
		Headers: []string{"dim", "table size", "linear scan", "path oram",
			"circuit oram", "dhe uniform", "dhe varied"},
	}
	for _, dim := range []int{16, 64} {
		for _, n := range sizes {
			r.AddRow(
				fmt.Sprintf("%d", dim),
				fmt.Sprintf("%.0e", float64(n)),
				ms(p.ScanNs(n, dim, batch)),
				ms(p.PathNs(n, dim, batch)),
				ms(p.CircuitNs(n, dim, batch)),
				ms(p.DHENs(dhe.UniformConfig(dim, 1), batch)),
				ms(p.DHENs(dhe.VariedConfig(dim, n, 1), batch)),
			)
		}
	}
	r.AddNote("paper Figure 4: scan wins small tables; DHE flat; Circuit < Path; scan/Path impractical at 1e7")
	return r
}

// Fig5 reproduces the LLM token-embedding latency vs embedding dimension
// for several generation batch sizes (Figure 5): vocabulary 50257,
// 16 threads.
func Fig5(quick bool) Report {
	dims := []int{768, 1024, 2048, 4096, 8192}
	batches := []int{1, 8, 64, 256, 2048}
	if quick {
		dims = []int{768, 1024}
		batches = []int{1, 256}
	}
	const vocab = 50257
	p := perf.IceLake(16)
	r := Report{
		ID:      "fig5",
		Title:   "LLM embedding generation latency (ms per batch; vocab 50257, 16 threads)",
		Headers: []string{"dim", "batch", "lookup", "linear scan", "circuit oram", "dhe", "best secure"},
	}
	for _, dim := range dims {
		cfg := dhe.LLMConfig(dim, 1)
		for _, b := range batches {
			scan := p.ScanNs(vocab, dim, b)
			circ := p.CircuitNs(vocab, dim, b)
			d := p.DHENs(cfg, b)
			best := "DHE"
			switch {
			case scan < circ && scan < d:
				best = "Linear Scan"
			case circ < d:
				best = "Circuit ORAM"
			}
			r.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", b),
				ms(p.LookupNs(dim, b)), ms(scan), ms(circ), ms(d), best)
		}
	}
	r.AddNote("paper Figure 5: DHE wins large batches (prefill); Circuit ORAM competitive at batch 1 (decode)")
	return r
}

// Fig6 reproduces the profiled scan/DHE threshold table sizes across
// execution configurations (Figure 6), dim 64, under the platform model.
func Fig6(quick bool) Report {
	batches := []int{1, 8, 32, 128, 512}
	threads := []int{1, 2, 4, 8, 16}
	if quick {
		batches = []int{1, 32}
		threads = []int{1, 8}
	}
	r := Report{
		ID:      "fig6",
		Title:   "Scan/DHE-Uniform switching threshold (table size) per execution config, dim 64",
		Headers: []string{"batch", "threads", "threshold"},
	}
	for _, b := range batches {
		for _, th := range threads {
			r.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%d", th),
				fmt.Sprintf("%d", ModelThreshold(64, b, th)))
		}
	}
	r.AddNote("paper Figure 6: thresholds fall with batch size, rise with thread count (≈3300 at batch 32/1 thread)")
	return r
}

// ModelThreshold is the table size where DHE Uniform overtakes the linear
// scan under the platform model.
func ModelThreshold(dim, batch, threads int) int {
	uniform := func(int) dhe.Config { return dhe.UniformConfig(dim, 1) }
	return perf.IceLake(threads).Threshold(dim, batch, uniform, true)
}

// ModelThresholdVaried is the crossing of the scan against the size-scaled
// (Varied) DHE, at the model's grid resolution.
func ModelThresholdVaried(dim, batch, threads int) int {
	varied := func(rows int) dhe.Config { return dhe.VariedConfig(dim, rows, 1) }
	return perf.IceLake(threads).Threshold(dim, batch, varied, false)
}

// Fig7 classifies the Criteo tables against the threshold range of all
// profiled configurations (Figure 7): below the range → always linear
// scan; inside → hybrid (config-dependent); above → always DHE.
func Fig7() Report {
	lo, hi := thresholdRange(64)
	r := Report{
		ID:      "fig7",
		Title:   fmt.Sprintf("Criteo tables vs hybrid threshold range [%d, %d] (dim-64 profile)", lo, hi),
		Headers: []string{"dataset", "always scan", "hybrid range", "always DHE", "DHE share of table bytes"},
	}
	for _, ds := range []struct {
		name  string
		cards []int
	}{{"Kaggle", data.KaggleCardinalities}, {"Terabyte", data.TerabyteCardinalities}} {
		scan, hyb, dheN := 0, 0, 0
		var dheBytesSum, total int64
		for _, n := range ds.cards {
			switch {
			case n <= lo:
				scan++
			case n <= hi:
				hyb++
			default:
				dheN++
			}
			if n > hi {
				dheBytesSum += int64(n)
			}
			total += int64(n)
		}
		r.AddRow(ds.name, fmt.Sprintf("%d", scan), fmt.Sprintf("%d", hyb), fmt.Sprintf("%d", dheN),
			fmt.Sprintf("%.1f%%", 100*float64(dheBytesSum)/float64(total)))
	}
	r.AddNote("paper Figure 7: 7 (Kaggle) / 9 (Terabyte) tables always benefit from DHE — 99.7%% of table memory")
	return r
}

// thresholdRange returns the min/max model thresholds over the Fig. 6
// configuration grid.
func thresholdRange(dim int) (lo, hi int) {
	lo, hi = math.MaxInt, 0
	for _, b := range []int{1, 8, 32, 128, 512} {
		for _, th := range []int{1, 2, 4, 8, 16} {
			t := ModelThreshold(dim, b, th)
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
	}
	return lo, hi
}
