package perf

import (
	"testing"

	"secemb/internal/oram"
)

// measure runs accesses on an ORAM built per variant and returns the
// model-estimated per-access latency.
func measure(t *testing.T, mkORAM func(cfg oram.Config) oram.ORAM, v Variant, n int) float64 {
	t.Helper()
	cutoff := -1 // recursion off
	if v.RecursionEnabled() {
		cutoff = 0 // scheme default cutoffs
	}
	o := mkORAM(oram.Config{NumBlocks: n, BlockWords: 64, Seed: 1, RecursionCutoff: cutoff})
	before := *o.Stats()
	const accesses = 50
	for i := 0; i < accesses; i++ {
		o.Read(uint64(i % n))
	}
	d := Delta(*o.Stats(), before)
	return v.Prices().EstimateNs(d) / accesses
}

func TestVariantString(t *testing.T) {
	if ZTOriginal.String() != "ZT-Original" || ZTGramine.String() != "ZT-Gramine" ||
		ZTGramineOpt.String() != "ZT-Gramine-Opt" || Variant(99).String() != "unknown" {
		t.Fatal("Variant.String mismatch")
	}
}

func TestRecursionOnlyInOpt(t *testing.T) {
	if ZTOriginal.RecursionEnabled() || ZTGramine.RecursionEnabled() || !ZTGramineOpt.RecursionEnabled() {
		t.Fatal("recursion availability wrong")
	}
}

// TestFig10Ordering: for both ORAM schemes and a table large enough for
// recursion to matter, the Figure 10 ordering must hold:
// ZT-Original > ZT-Gramine > ZT-Gramine-Opt.
func TestFig10Ordering(t *testing.T) {
	schemes := []struct {
		name string
		mk   func(cfg oram.Config) oram.ORAM
	}{
		{"Path", func(cfg oram.Config) oram.ORAM { return oram.NewPath(cfg) }},
		{"Circuit", func(cfg oram.Config) oram.ORAM { return oram.NewCircuit(cfg) }},
	}
	const n = 1 << 14 // above Circuit's recursion cutoff
	for _, s := range schemes {
		orig := measure(t, s.mk, ZTOriginal, n)
		gram := measure(t, s.mk, ZTGramine, n)
		opt := measure(t, s.mk, ZTGramineOpt, n)
		t.Logf("%s: original=%.0fns gramine=%.0fns opt=%.0fns", s.name, orig, gram, opt)
		if !(orig > gram && gram > opt) {
			t.Fatalf("%s: ordering violated: %v > %v > %v expected", s.name, orig, gram, opt)
		}
	}
}

func TestEstimateNsComponents(t *testing.T) {
	m := EnclavePrices{BucketAccessNs: 10, WordMoveNs: 1, StashSlotNs: 2, PosmapEntryNs: 3, CmovOverheadNs: 4, OcallNs: 100, CrossCopyWordNs: 5}
	s := oram.Stats{BucketsRead: 1, BucketsWritten: 1, WordsMoved: 2, StashScans: 3, PosmapScans: 4, CmovOps: 5}
	want := 2.0*10 + 2*1 + 3*2 + 4*3 + 5*4 + 2*100 + 2*5
	if got := m.EstimateNs(s); got != want {
		t.Fatalf("EstimateNs=%v, want %v", got, want)
	}
}

func TestDelta(t *testing.T) {
	a := oram.Stats{Accesses: 10, BucketsRead: 100, MaxStash: 7}
	b := oram.Stats{Accesses: 4, BucketsRead: 30, MaxStash: 5}
	d := Delta(a, b)
	if d.Accesses != 6 || d.BucketsRead != 70 || d.MaxStash != 7 {
		t.Fatalf("Delta=%+v", d)
	}
}
