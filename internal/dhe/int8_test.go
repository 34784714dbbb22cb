package dhe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"secemb/internal/tensor"
)

func TestEnableInt8GatePasses(t *testing.T) {
	d := New(VariedConfig(16, 4096, 7), rand.New(rand.NewSource(7)))
	rep := d.EnableInt8(Int8Gate{})
	if !rep.Enabled {
		t.Fatalf("default gate rejected a Xavier-initialized decoder: err %v > %v",
			rep.MaxAbsErr, rep.Threshold)
	}
	if !d.Int8Active() {
		t.Fatal("Int8Active false after accepted gate")
	}
	if rep.MaxAbsErr <= 0 || rep.Threshold != DefaultInt8MaxAbsErr {
		t.Fatalf("implausible report %+v", rep)
	}

	// Int8 inference stays close to float on real lookups.
	ids := []uint64{0, 3, 99, 4095}
	want := d.Decoder.Forward(d.EncodeBatch(ids))
	c := d.InferenceClone()
	if !c.Int8Active() {
		t.Fatal("InferenceClone dropped int8 mode")
	}
	got := c.Generate(ids)
	if diff := tensor.MaxAbsDiff(got, want); diff > rep.Threshold {
		t.Fatalf("int8 serving drifted %v from float (gate %v)", diff, rep.Threshold)
	}
}

func TestEnableInt8FallsBackOnWideWeights(t *testing.T) {
	d := New(Config{K: 32, Hidden: []int{16}, Dim: 8, Seed: 3}, rand.New(rand.NewSource(3)))
	// Blow up the last layer's dynamic range: quantization steps become
	// enormous, absolute output error exceeds any sane embedding-scale
	// bound, and the gate must refuse the swap.
	params := d.Params()
	w := params[len(params)-2].Value // final Linear weight (W before B)
	for i := range w.Data {
		w.Data[i] *= 1e4
	}
	rep := d.EnableInt8(Int8Gate{})
	if rep.Enabled || d.Int8Active() {
		t.Fatalf("gate accepted out-of-range quantization: %+v", rep)
	}
	if rep.MaxAbsErr <= rep.Threshold {
		t.Fatalf("report inconsistent with rejection: %+v", rep)
	}
	// Serving continues on float32.
	c := d.InferenceClone()
	if c.Int8Active() {
		t.Fatal("clone of rejected DHE claims int8")
	}
	if out := c.Generate([]uint64{1, 2}); out.Rows != 2 || out.Cols != 8 {
		t.Fatalf("float fallback broken: %dx%d", out.Rows, out.Cols)
	}
}

func TestInt8GenerateSteadyStateAllocs(t *testing.T) {
	d := New(VariedConfig(8, 1024, 9), rand.New(rand.NewSource(9)))
	if rep := d.EnableInt8(Int8Gate{}); !rep.Enabled {
		t.Fatalf("gate rejected: %+v", rep)
	}
	c := d.InferenceClone()
	ids := make([]uint64, 32)
	for i := range ids {
		ids[i] = uint64(i * 31)
	}
	c.Generate(ids) // size workspace + quant scratch
	allocs := testing.AllocsPerRun(50, func() { c.Generate(ids) })
	if allocs != 0 {
		t.Fatalf("int8 Generate allocates %.0f objects per call after warmup", allocs)
	}
}

func TestToTableReusesMaterializationClone(t *testing.T) {
	d := New(VariedConfig(8, 512, 11), rand.New(rand.NewSource(11)))
	a := d.ToTable(512)
	if d.mat == nil {
		t.Fatal("ToTable did not cache its materialization clone")
	}
	first := d.mat
	b := d.ToTable(512)
	if d.mat != first {
		t.Fatal("ToTable rebuilt the clone on a repeat call")
	}
	if !tensor.AllClose(a, b, 0) {
		t.Fatal("repeat materialization differs")
	}
	// Training updates flow through the cached clone (shared weights).
	d.Params()[0].Value.Data[0] += 1
	cchanged := d.ToTable(512)
	if tensor.AllClose(a, cchanged, 0) {
		t.Fatal("cached clone did not observe weight update")
	}
	// EnableInt8 invalidates the cache so materialization matches serving.
	if rep := d.EnableInt8(Int8Gate{}); !rep.Enabled {
		t.Fatalf("gate rejected: %+v", rep)
	}
	d.ToTable(512)
	if d.mat == first || !d.mat.Int8Active() {
		t.Fatal("ToTable kept a stale float clone after EnableInt8")
	}
}

// TestInt8GenerateGolden pins int8 Generate bit for bit at the 1M-row
// varied architecture (K = 128, a 64-32 decoder, dim 64): the encoder and
// the quantized decoder kernels may change speed, never a bit of output.
func TestInt8GenerateGolden(t *testing.T) {
	const want = "c5d88e997d3a9ef5ca36ecc9371a052a5c69c3e45fd77848a490d47c665bc3a8"
	d := New(VariedConfig(64, 1_000_000, 1), rand.New(rand.NewSource(1)))
	if rep := d.EnableInt8(Int8Gate{}); !rep.Enabled {
		t.Fatalf("gate rejected: %+v", rep)
	}
	c := d.InferenceClone()
	rng := rand.New(rand.NewSource(20250925))
	h := sha256.New()
	var b [4]byte
	for batch := 0; batch < 16; batch++ {
		ids := make([]uint64, 64)
		for i := range ids {
			ids[i] = uint64(rng.Int63n(1_000_000))
		}
		if batch == 0 {
			copy(ids, []uint64{0, 1, 999_999})
		}
		for _, v := range c.Generate(ids).Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("int8 Generate digest %s, want %s", got, want)
	}
}
