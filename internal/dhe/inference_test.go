package dhe

import (
	"math/rand"
	"sync"
	"testing"

	"secemb/internal/tensor"
)

func testCfg() Config {
	return Config{K: 32, Hidden: []int{24, 16}, Dim: 8, Seed: 9}
}

func TestInferenceModeMatchesTrainingPath(t *testing.T) {
	for _, gaussian := range []bool{false, true} {
		cfg := testCfg()
		cfg.Gaussian = gaussian
		train := New(cfg, rand.New(rand.NewSource(9)))
		inf := New(cfg, rand.New(rand.NewSource(9)))
		inf.SetInference(true)
		ids := []uint64{0, 7, 7, 12345, 999999999}
		want := train.Generate(ids)
		for i := 0; i < 3; i++ { // repeated calls must keep reusing correctly
			if got := inf.Generate(ids); !tensor.AllClose(got, want, 0) {
				t.Fatalf("gaussian=%v call %d: inference output diverges by %g",
					gaussian, i, tensor.MaxAbsDiff(got, want))
			}
		}
		// Varying batch sizes through one workspace.
		single := inf.Generate(ids[:1])
		if !tensor.AllClose(single, tensor.SliceRows(want, 0, 1), 0) {
			t.Fatalf("gaussian=%v: batch-1 output diverges after larger batches", gaussian)
		}
	}
}

func TestInferenceCloneSharesWeightsNotState(t *testing.T) {
	d := New(testCfg(), rand.New(rand.NewSource(10)))
	c := d.InferenceClone()
	ids := []uint64{3, 1, 4}
	want := d.Generate(ids)
	if got := c.Generate(ids); !tensor.AllClose(got, want, 0) {
		t.Fatal("clone output diverges from original")
	}
	// Training the original must be visible through the clone (weights are
	// shared by reference).
	for _, p := range d.Params() {
		p.Value.Data[0] += 0.5
	}
	after := c.Generate(ids)
	if tensor.AllClose(after, want, 0) {
		t.Fatal("clone did not observe a weight update")
	}
}

// TestInferenceClonesConcurrent drives independent clones from concurrent
// goroutines — the serving-replica shape. Run under -race this guards the
// fix for shared forward caches (each clone owns workspace + caches).
func TestInferenceClonesConcurrent(t *testing.T) {
	d := New(testCfg(), rand.New(rand.NewSource(11)))
	ids := []uint64{5, 2, 8, 13}
	want := d.Generate(ids).Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.InferenceClone()
			for i := 0; i < 25; i++ {
				if got := c.Generate(ids); !tensor.AllClose(got, want, 0) {
					t.Error("concurrent clone produced a wrong embedding")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGenerateSteadyStateAllocs is the allocation-regression gate of the
// float32 hot path: after the sizing call, inference-mode Generate on the
// Uniform DLRM architecture allocates nothing — the encoder buffer and
// every layer output live in the workspace, and a batch of at most one
// BlockRows chunk takes the matmul's closure-free single-worker path.
func TestGenerateSteadyStateAllocs(t *testing.T) {
	d := New(UniformConfig(16, 1), rand.New(rand.NewSource(1)))
	d.SetInference(true)
	for _, batch := range []int{1, 64} {
		ids := make([]uint64, batch)
		for i := range ids {
			ids[i] = uint64(i * 131)
		}
		d.Generate(ids) // size the workspace
		allocs := testing.AllocsPerRun(10, func() { d.Generate(ids) })
		if allocs != 0 {
			t.Fatalf("steady-state Generate allocates %.0f objects per batch-%d call", allocs, batch)
		}
	}
}

func TestToTableUsesInferenceCloneSafely(t *testing.T) {
	d := New(testCfg(), rand.New(rand.NewSource(12)))
	const rows = 100
	table := d.ToTable(rows)
	ids := []uint64{0, 1, 50, 99}
	want := d.Generate(ids)
	for r, id := range ids {
		got := tensor.FromSlice(1, d.Dim, table.Row(int(id)))
		if !tensor.AllClose(got, tensor.SliceRows(want, r, r+1), 0) {
			t.Fatalf("table row %d diverges from Generate", id)
		}
	}
	// ToTable must leave the training instance in training mode.
	if d.inference {
		t.Fatal("ToTable flipped the original DHE into inference mode")
	}
}
