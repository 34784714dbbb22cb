package experiments

import (
	"fmt"

	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/oram"
	"secemb/internal/perf"
)

// Fig10 reproduces the ZeroTrace optimization study (Figure 10): Path and
// Circuit ORAM single-lookup latency under the three deployment variants.
// The ORAM controllers are *actually executed* (this repository's
// implementations) to collect their work counters; perf's variant price
// table prices those counters.
func Fig10(quick bool) Report {
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if quick {
		sizes = []int{1 << 12}
	}
	const dim = 64
	const accesses = 20
	r := Report{
		ID:      "fig10",
		Title:   "Single-lookup latency of ORAM deployment variants (dim 64, model-priced from executed controllers)",
		Headers: []string{"scheme", "table size", "ZT-Original (ms)", "ZT-Gramine (ms)", "ZT-Gramine-Opt (ms)"},
	}
	variants := []perf.Variant{perf.ZTOriginal, perf.ZTGramine, perf.ZTGramineOpt}
	for _, scheme := range []string{"Path", "Circuit"} {
		for _, n := range sizes {
			var cells []string
			for _, v := range variants {
				cutoff := -1
				if v.RecursionEnabled() {
					cutoff = 0
				}
				cfg := oram.Config{NumBlocks: n, BlockWords: dim, Seed: 3, RecursionCutoff: cutoff}
				var o oram.ORAM
				if scheme == "Path" {
					o = oram.NewPath(cfg)
				} else {
					o = oram.NewCircuit(cfg)
				}
				before := *o.Stats()
				for i := 0; i < accesses; i++ {
					o.Read(uint64(i % n))
				}
				ns := v.Prices().EstimateNs(perf.Delta(*o.Stats(), before)) / accesses
				cells = append(cells, ms(ns))
			}
			r.AddRow(scheme, fmt.Sprintf("%d", n), cells[0], cells[1], cells[2])
		}
	}
	r.AddNote("paper Figure 10: EPC residency cuts 20%%/60%% (Path/Circuit); inlining+recursion cuts a further 29%%/54%%")
	return r
}

// Fig8 reproduces the co-location inflation study (Figure 8): latency of a
// replica as identical replicas are added, for scan- and DHE-based
// embedding generation.
func Fig8(quick bool) Report {
	counts := []int{1, 4, 8, 16, 24}
	if quick {
		counts = []int{1, 24}
	}
	sys := perf.IceLakeSystem()
	const rows, dim, batch = 1_000_000, 64, 32
	scan := sys.Platform.ScanCost(rows, dim, batch)
	dheU := sys.Platform.DHECost(dhe.UniformConfig(dim, 1), batch)
	r := Report{
		ID:      "fig8",
		Title:   "Latency inflation under co-location (1e6-row table, dim 64, batch 32)",
		Headers: []string{"replicas", "linear scan (ms)", "scan inflation", "DHE (ms)", "DHE inflation"},
	}
	for _, n := range counts {
		sLat := sys.MeanLatency(perf.Replicas(scan, n))
		dLat := sys.MeanLatency(perf.Replicas(dheU, n))
		r.AddRow(fmt.Sprintf("%d", n), ms(sLat), fmt.Sprintf("%.2fx", sLat/sys.Solo(scan)),
			ms(dLat), fmt.Sprintf("%.2fx", dLat/sys.Solo(dheU)))
	}
	r.AddNote("paper Figure 8: memory-bound scans inflate with co-location; compute-bound DHE barely moves")
	return r
}

// Fig9 reproduces the fixed-24-replica allocation sweep (Figure 9): mean
// embedding latency as the scan/DHE split varies, per table size.
func Fig9(quick bool) Report {
	sizes := []int{1000, 3000, 4500, 5000, 10_000}
	splits := []int{0, 6, 12, 18, 24}
	if quick {
		sizes = []int{1000, 10_000}
		splits = []int{0, 24}
	}
	sys := perf.IceLakeSystem()
	const dim, batch = 64, 32
	dheU := sys.Platform.DHECost(dhe.UniformConfig(dim, 1), batch)
	r := Report{
		ID:    "fig9",
		Title: "Mean latency (ms) for N=24 co-located replicas vs number allocated to DHE",
		Headers: append([]string{"table size"}, func() []string {
			var h []string
			for _, s := range splits {
				h = append(h, fmt.Sprintf("dhe=%d", s))
			}
			return h
		}()...),
	}
	for _, rows := range sizes {
		cells := []string{fmt.Sprintf("%d", rows)}
		best, bestSplit := -1.0, 0
		for _, nDHE := range splits {
			loads := append(perf.Replicas(dheU, nDHE),
				perf.Replicas(sys.Platform.ScanCost(rows, dim, batch), 24-nDHE)...)
			lat := sys.MeanLatency(loads)
			cells = append(cells, ms(lat))
			if best < 0 || lat < best {
				best, bestSplit = lat, nDHE
			}
		}
		r.AddRow(cells...)
		r.AddNote("rows=%d: best split dhe=%d", rows, bestSplit)
	}
	r.AddNote("paper Figure 9: small tables favor all-scan (x=0); beyond ≈4500 rows all-DHE (x=24) wins")
	return r
}

// Fig13 reproduces the latency-throughput study (Figure 13): co-located
// DHE-Varied vs Hybrid-Varied Terabyte models against a 20 ms SLA.
func Fig13(quick bool) Report {
	sys := perf.IceLakeSystem()
	const batch = 32
	counts := []int{1, 4, 8, 16, 24, 28}
	if quick {
		counts = []int{1, 28}
	}
	dheLoad, hybLoad := terabyteLoads(sys.Platform, batch)
	r := Report{
		ID:      "fig13",
		Title:   "Co-located Terabyte models: latency and throughput (batch 32; SLA 20 ms)",
		Headers: []string{"replicas", "DHE-V lat (ms)", "DHE-V inf/s", "Hybrid-V lat (ms)", "Hybrid-V inf/s"},
	}
	for _, n := range counts {
		dl, dt := sys.Throughput(dheLoad, n, batch)
		hl, ht := sys.Throughput(hybLoad, n, batch)
		r.AddRow(fmt.Sprintf("%d", n), ms(dl), fmt.Sprintf("%.0f", dt), ms(hl), fmt.Sprintf("%.0f", ht))
	}
	const sla = 20e6
	_, dtp := sys.MaxThroughputUnderSLA(dheLoad, batch, 28, sla)
	_, htp := sys.MaxThroughputUnderSLA(hybLoad, batch, 28, sla)
	r.AddNote("SLA-bounded throughput: DHE-Varied %.0f inf/s vs Hybrid-Varied %.0f inf/s (%.2fx)",
		dtp, htp, htp/dtp)
	r.AddNote("paper Figure 13: hybrid raises latency-bounded throughput 1.4x over all-DHE for Terabyte")
	return r
}

// terabyteLoads builds whole-model loads (all 26 features + MLPs) for the
// all-DHE-Varied and Hybrid-Varied Terabyte models.
func terabyteLoads(p perf.Platform, batch int) (dheV, hybridV perf.Cost) {
	// The hybrid pairs the scan with the *Varied* DHE, so the relevant
	// threshold is the scan/Varied crossing (see Fig. 11).
	thr := ModelThresholdVaried(64, batch, 1)
	cards := data.TerabyteCardinalities
	mlp := perf.Cost{ComputeNs: mlpNs(p, 13, 64, []int{512, 256}, []int{512, 512, 256}, len(cards), batch)}
	dheV, hybridV = mlp, mlp
	for _, n := range cards {
		feature := p.DHECost(dhe.VariedConfig(64, n, 1), batch)
		dheV = dheV.Plus(feature)
		if n <= thr {
			feature = p.ScanCost(n, 64, batch)
		}
		hybridV = hybridV.Plus(feature)
	}
	return dheV, hybridV
}
