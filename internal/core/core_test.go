package core

import (
	"errors"
	"math/rand"
	"testing"

	"secemb/internal/dhe"
	"secemb/internal/tensor"
)

func testTable(rows, dim int, seed int64) *tensor.Matrix {
	return tensor.NewGaussian(rows, dim, 0.5, rand.New(rand.NewSource(seed)))
}

func mustGen(t *testing.T, g Generator, ids []uint64) *tensor.Matrix {
	t.Helper()
	out, err := g.Generate(ids)
	if err != nil {
		t.Fatalf("Generate(%v): %v", ids, err)
	}
	return out
}

// storageTechs lists every technique that *stores* the given table.
var storageTechs = []Technique{Lookup, LinearScan, LinearScanBatched, PathORAM, CircuitORAM}

// newStorage builds a storage-technique generator over tbl through the v1
// constructor.
func newStorage(tech Technique, tbl *tensor.Matrix, opts Options) Generator {
	opts.Table = tbl
	return MustNew(tech, tbl.Rows, tbl.Cols, opts)
}

func TestStorageGeneratorsAgree(t *testing.T) {
	tbl := testTable(200, 8, 1)
	ref := newStorage(Lookup, tbl, Options{})
	ids := []uint64{0, 7, 199, 7, 42}
	want := mustGen(t, ref, ids)
	for _, tech := range storageTechs[1:] {
		g := newStorage(tech, tbl, Options{Seed: 2})
		got := mustGen(t, g, ids)
		if !tensor.AllClose(got, want, 0) {
			t.Fatalf("%v output differs from direct lookup", tech)
		}
	}
}

func TestGeneratorMetadata(t *testing.T) {
	tbl := testTable(64, 4, 3)
	for _, tech := range storageTechs {
		g := newStorage(tech, tbl, Options{})
		if g.Rows() != 64 || g.Dim() != 4 {
			t.Fatalf("%v metadata wrong: rows=%d dim=%d", tech, g.Rows(), g.Dim())
		}
		if g.Technique() != tech {
			t.Fatalf("%v Technique()=%v", tech, g.Technique())
		}
		if g.NumBytes() <= 0 {
			t.Fatalf("%v NumBytes=%d", tech, g.NumBytes())
		}
	}
}

func TestTechniqueStringsAndSecurity(t *testing.T) {
	if Lookup.Secure() {
		t.Fatal("Lookup must not be secure")
	}
	for _, tech := range []Technique{LinearScan, LinearScanBatched, PathORAM, CircuitORAM, DHE} {
		if !tech.Secure() {
			t.Fatalf("%v must be secure", tech)
		}
		if tech.String() == "unknown" {
			t.Fatalf("missing name for %d", tech)
		}
	}
	if Technique(99).String() != "unknown" {
		t.Fatal("unknown technique must say so")
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	tbl := testTable(10, 2, 4)
	for _, tech := range storageTechs {
		out, err := newStorage(tech, tbl, Options{}).Generate([]uint64{3, 10})
		if out != nil || err == nil {
			t.Fatalf("%v: expected error for out-of-range id, got out=%v err=%v", tech, out, err)
		}
		if !errors.Is(err, ErrIDOutOfRange) {
			t.Fatalf("%v: error %v must wrap ErrIDOutOfRange", tech, err)
		}
		var re *IDRangeError
		if !errors.As(err, &re) || re.Index != 1 || re.ID != 10 || re.Rows != 10 {
			t.Fatalf("%v: IDRangeError details wrong: %+v", tech, re)
		}
	}
	// DHE bounds the virtual table the same way.
	if _, err := MustNew(DHE, 100, 8, Options{}).Generate([]uint64{100}); !errors.Is(err, ErrIDOutOfRange) {
		t.Fatalf("DHE: expected ErrIDOutOfRange, got %v", err)
	}
}

func TestDHEGeneratorBasics(t *testing.T) {
	g := MustNew(DHE, 1000, 8, Options{Seed: 5})
	out := mustGen(t, g, []uint64{1, 2, 1})
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
	if g.Technique() != DHE || g.Rows() != 1000 || g.Dim() != 8 {
		t.Fatal("DHE metadata wrong")
	}
	if !tensor.AllClose(tensor.SliceRows(out, 0, 1), tensor.SliceRows(out, 2, 3), 0) {
		t.Fatal("same id must embed identically")
	}
	if _, ok := Underlying(g); !ok {
		t.Fatal("Underlying must expose the DHE")
	}
	if _, ok := Underlying(newStorage(Lookup, testTable(4, 2, 1), Options{})); ok {
		t.Fatal("Underlying must reject non-DHE generators")
	}
}

func TestDHEToTableRoundTrip(t *testing.T) {
	// The hybrid pipeline materializes a trained DHE into a table served
	// by linear scan; both representations must agree exactly (§IV-C1).
	rng := rand.New(rand.NewSource(6))
	d := dhe.New(dhe.Config{K: 32, Hidden: []int{16}, Dim: 4, Seed: 6}, rng)
	const rows = 50
	gDHE := MustNew(DHE, rows, d.Dim, Options{DHE: d})
	gScan := newStorage(LinearScan, d.ToTable(rows), Options{})
	ids := []uint64{0, 13, 49}
	if !tensor.AllClose(mustGen(t, gDHE, ids), mustGen(t, gScan, ids), 0) {
		t.Fatal("DHE and its materialized table disagree")
	}
}

func TestFootprintOrdering(t *testing.T) {
	// Table VI's qualitative ordering at a representative size:
	// ORAM > table = scan ≫ DHE.
	tbl := testTable(1<<13, 16, 7)
	look := newStorage(Lookup, tbl, Options{})
	oramGen := newStorage(CircuitORAM, tbl, Options{})
	dheGen := MustNew(DHE, 1<<13, 16, Options{})
	if oramGen.NumBytes() <= look.NumBytes() {
		t.Fatal("ORAM must cost more memory than the raw table")
	}
	if dheGen.NumBytes() >= look.NumBytes() {
		t.Fatalf("DHE (%d B) must undercut the table (%d B) at this size",
			dheGen.NumBytes(), look.NumBytes())
	}
	if r := float64(oramGen.NumBytes()) / float64(look.NumBytes()); r < 1.5 {
		t.Fatalf("ORAM footprint ratio %.2f too low", r)
	}
}

func TestThreadsSettable(t *testing.T) {
	tbl := testTable(64, 4, 9)
	ids := []uint64{5, 6, 7, 8}
	for _, tech := range storageTechs {
		a := mustGen(t, newStorage(tech, tbl, Options{Threads: 1}), ids)
		b := mustGen(t, newStorage(tech, tbl, Options{Threads: 4}), ids)
		if !tensor.AllClose(a, b, 0) {
			t.Fatalf("%v: thread count changed results", tech)
		}
	}
}
