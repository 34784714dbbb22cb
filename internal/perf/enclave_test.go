package perf

import (
	"strings"
	"testing"

	"secemb/internal/obs"
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

// TestMeterSharedAcrossReplicas: every replica of a table builds its own
// Meter over the same registry metrics; counters add up, the stash gauge
// keeps the largest high-water mark whichever replica reports last, and
// the modeled nanoseconds are the variant's prices applied to the window.
func TestMeterSharedAcrossReplicas(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := NewMeter(ZTGramineOpt, reg), NewMeter(ZTGramineOpt, reg)
	big := oram.Stats{Accesses: 2, BucketsRead: 10, BucketsWritten: 10, WordsMoved: 100, StashScans: 40, CmovOps: 7, MaxStash: 9}
	small := oram.Stats{Accesses: 1, BucketsRead: 5, BucketsWritten: 5, WordsMoved: 50, MaxStash: 3}
	a.Record(big)
	b.Record(small)
	get := func(name string) int64 { return reg.Counter(name, "variant", "ZT-Gramine-Opt").Value() }
	if get("enclave_accesses_total") != 3 || get("enclave_buckets_total") != 30 || get("enclave_words_total") != 150 {
		t.Fatalf("counters do not add up across replicas: %d %d %d",
			get("enclave_accesses_total"), get("enclave_buckets_total"), get("enclave_words_total"))
	}
	if got := reg.Gauge("enclave_stash_max", "variant", "ZT-Gramine-Opt").Value(); got != 9 {
		t.Fatalf("enclave_stash_max=%d, want 9 (a later, smaller window must not lower it)", got)
	}
	pr := ZTGramineOpt.Prices()
	if want := int64(pr.EstimateNs(big)) + int64(pr.EstimateNs(small)); get("enclave_est_ns_total") != want {
		t.Fatalf("enclave_est_ns_total=%d, want %d", get("enclave_est_ns_total"), want)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "ocall") {
		t.Fatalf("the always-zero ocall counter is back:\n%s", text.String())
	}
	var nilMeter *Meter
	nilMeter.Record(big) // nil-safe
	if NewMeter(ZTOriginal, nil) != nil {
		t.Fatal("nil registry must yield the no-op meter")
	}
}
