package core

import (
	"math/rand"
	"testing"

	"secemb/internal/dhe"
	"secemb/internal/memtrace"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

func TestInt8OptionEnablesQuantizedServing(t *testing.T) {
	reg := obs.NewRegistry()
	d := smallCoreDHE(80)
	// Float reference from the training-mode forward (unaffected by the
	// int8 swap, which only rewires the inference path).
	want := d.Generate([]uint64{1, 2, 3}).Clone()

	g := MustNew(DHE, 1000, d.Dim, Options{DHE: d, Int8: true, Obs: reg})
	if !Int8Active(g) {
		t.Fatal("well-conditioned decoder should pass the int8 gate")
	}
	if v := reg.Counter("dhe_int8_enabled_total").Value(); v != 1 {
		t.Fatalf("dhe_int8_enabled_total = %d", v)
	}
	if v := reg.Gauge("dhe_int8_active").Value(); v != 1 {
		t.Fatalf("dhe_int8_active = %d", v)
	}
	got := mustGen(t, g, []uint64{1, 2, 3})
	if diff := tensor.MaxAbsDiff(got, want); diff > dhe.DefaultInt8MaxAbsErr {
		t.Fatalf("int8 serving drifted %v beyond the gate bound", diff)
	}
}

func TestInt8OptionFallsBackOnWideWeights(t *testing.T) {
	reg := obs.NewRegistry()
	d := smallCoreDHE(81)
	params := d.Params()
	w := params[len(params)-2].Value
	for i := range w.Data {
		w.Data[i] *= 1e4
	}
	g := MustNew(DHE, 1000, d.Dim, Options{DHE: d, Int8: true, Obs: reg})
	if Int8Active(g) {
		t.Fatal("gate must refuse a decoder with blown-up dynamic range")
	}
	if v := reg.Counter("dhe_int8_fallback_total").Value(); v != 1 {
		t.Fatalf("dhe_int8_fallback_total = %d", v)
	}
	if v := reg.Gauge("dhe_int8_active").Value(); v != 0 {
		t.Fatalf("dhe_int8_active = %d after fallback", v)
	}
	// The float fallback still serves (same outputs as a plain DHE gen).
	want := d.Generate([]uint64{7, 8})
	got := mustGen(t, g, []uint64{7, 8})
	if !tensor.AllClose(got, want, 0) {
		t.Fatal("float fallback must serve the unquantized decoder")
	}
}

func TestInt8GenSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	d := dhe.New(dhe.VariedConfig(16, 4096, 82), rng)
	g := MustNew(DHE, 4096, d.Dim, Options{DHE: d, Int8: true})
	if !Int8Active(g) {
		t.Fatal("gate rejected the test decoder")
	}
	ids := []uint64{5, 10, 15, 20, 99, 1000}
	mustGen(t, g, ids) // size workspace + quant scratch
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.Generate(ids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state int8 dheGen allocates %.0f objects per call", allocs)
	}
}

func TestInt8TraceUsesPackedFootprint(t *testing.T) {
	// Trace synthesis must reflect the representation actually served:
	// the packed int8 sweep touches about half the float32 bytes.
	countBlocks := func(int8on bool) int {
		tr := memtrace.NewEnabled()
		d := smallCoreDHE(83)
		g := MustNew(DHE, 1000, d.Dim, Options{DHE: d, Int8: int8on, Tracer: tr})
		if int8on && !Int8Active(g) {
			t.Fatal("gate rejected")
		}
		mustGen(t, g, []uint64{1})
		return len(tr.Snapshot())
	}
	f32 := countBlocks(false)
	i8 := countBlocks(true)
	if i8 >= f32 {
		t.Fatalf("int8 trace (%d blocks) not smaller than float trace (%d)", i8, f32)
	}
}

func TestInt8ActiveFalseForNonDHE(t *testing.T) {
	g := MustNew(Lookup, 64, 8, Options{Seed: 84})
	if Int8Active(g) {
		t.Fatal("Int8Active must be false for storage generators")
	}
}
