package dlrm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/memtrace"
	"secemb/internal/nn"
	"secemb/internal/tensor"
)

// tinyConfig is a minimal DLRM for fast tests.
func tinyConfig(seed int64) Config {
	return Config{
		DenseDim:      3,
		EmbDim:        4,
		BottomHidden:  []int{6},
		TopHidden:     []int{8},
		Cardinalities: []int{11, 23},
		Seed:          seed,
	}
}

func tinyBatch(cfg Config, batch int, seed int64) (*tensor.Matrix, [][]uint64, []float32) {
	rng := rand.New(rand.NewSource(seed))
	dense := tensor.NewUniform(batch, cfg.DenseDim, 1, rng)
	sparse := make([][]uint64, len(cfg.Cardinalities))
	for f, n := range cfg.Cardinalities {
		sparse[f] = make([]uint64, batch)
		for r := range sparse[f] {
			sparse[f][r] = uint64(rng.Intn(n))
		}
	}
	labels := make([]float32, batch)
	for r := range labels {
		labels[r] = float32(rng.Intn(2))
	}
	return dense, sparse, labels
}

func TestForwardShape(t *testing.T) {
	cfg := tinyConfig(1)
	for _, kind := range []EmbKind{TableEmb, DHEUniformEmb, DHEVariedEmb} {
		m := New(cfg, kind)
		dense, sparse, _ := tinyBatch(cfg, 5, 2)
		out := m.Forward(dense, sparse)
		if out.Rows != 5 || out.Cols != 1 {
			t.Fatalf("kind %d: logits shape %dx%d", kind, out.Rows, out.Cols)
		}
	}
}

func TestInteractionValues(t *testing.T) {
	// Two vectors per example: interaction = their dot product only.
	a := tensor.FromSlice(1, 2, []float32{1, 2})
	b := tensor.FromSlice(1, 2, []float32{3, 4})
	out := interact([]*tensor.Matrix{a, b})
	if out.Rows != 1 || out.Cols != 1 || out.At(0, 0) != 11 {
		t.Fatalf("interact = %v, want [[11]]", out)
	}
	// Three vectors → 3 pairwise products in order (0,1),(0,2),(1,2).
	c := tensor.FromSlice(1, 2, []float32{5, 6})
	out3 := interact([]*tensor.Matrix{a, b, c})
	want := []float32{11, 17, 39}
	for i, w := range want {
		if out3.At(0, i) != w {
			t.Fatalf("interact3[%d]=%v, want %v", i, out3.At(0, i), w)
		}
	}
}

func TestInteractionBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := []*tensor.Matrix{
		tensor.NewUniform(2, 3, 1, rng),
		tensor.NewUniform(2, 3, 1, rng),
		tensor.NewUniform(2, 3, 1, rng),
	}
	loss := func() float64 {
		out := interact(z)
		var s float64
		for _, v := range out.Data {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}
	out := interact(z)
	grads := interactBackward(z, out) // dLoss/dp = p for ½‖p‖²
	const h = 1e-3
	for vi, zv := range z {
		for i := range zv.Data {
			orig := zv.Data[i]
			zv.Data[i] = orig + h
			up := loss()
			zv.Data[i] = orig - h
			down := loss()
			zv.Data[i] = orig
			want := (up - down) / (2 * h)
			got := float64(grads[vi].Data[i])
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("z[%d] grad[%d]: got %v want %v", vi, i, got, want)
			}
		}
	}
}

func TestModelGradientsNumeric(t *testing.T) {
	// End-to-end gradient check through top MLP, interaction, bottom MLP
	// and the embedding table.
	cfg := tinyConfig(4)
	m := New(cfg, TableEmb)
	dense, sparse, labels := tinyBatch(cfg, 3, 5)
	lossFn := func() float64 {
		logits := m.Forward(dense, sparse)
		l, _ := nn.BCEWithLogits(logits, labels)
		return l
	}
	m.ZeroGrads()
	logits := m.Forward(dense, sparse)
	_, grad := nn.BCEWithLogits(logits, labels)
	m.Backward(grad)

	rng := rand.New(rand.NewSource(6))
	params := m.Params()
	checked := 0
	for _, p := range params {
		// Spot-check a few coordinates per parameter to keep runtime sane.
		for trial := 0; trial < 3; trial++ {
			i := rng.Intn(len(p.Value.Data))
			const h = 1e-2
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossFn()
			p.Value.Data[i] = orig - h
			down := lossFn()
			p.Value.Data[i] = orig
			want := (up - down) / (2 * h)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > 5e-2*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: got %v want %v", p.Name, i, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestTrainingLearnsSignal(t *testing.T) {
	cfg := tinyConfig(7)
	ds := data.NewCTR(cfg.DenseDim, cfg.Cardinalities, 7)
	m := New(cfg, TableEmb)
	opt := nn.NewAdam(0.01)
	first := m.Train(ds, 5, 64, opt, 8)
	last := m.Train(ds, 300, 64, opt, 9)
	if last >= first {
		t.Fatalf("loss did not fall: %v → %v", first, last)
	}
	acc := m.Accuracy(ds, 10, 128, 10)
	if acc < 0.55 {
		t.Fatalf("accuracy %.3f barely above chance", acc)
	}
}

func TestPipelineMatchesTrainableModel(t *testing.T) {
	cfg := tinyConfig(11)
	m := New(cfg, TableEmb)
	dense, sparse, _ := tinyBatch(cfg, 4, 12)
	want := m.Forward(dense, sparse)
	for _, tech := range []core.Technique{core.Lookup, core.LinearScan, core.PathORAM, core.CircuitORAM} {
		p := Build(m, tech, core.Options{Seed: 13})
		got, err := p.Logits(dense, sparse)
		if err != nil {
			t.Fatalf("%v logits: %v", tech, err)
		}
		if !tensor.AllClose(got, want, 1e-5) {
			t.Fatalf("%v pipeline differs from model by %v", tech, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestDHEModelPipelines(t *testing.T) {
	cfg := tinyConfig(14)
	m := New(cfg, DHEVariedEmb)
	dense, sparse, _ := tinyBatch(cfg, 4, 15)
	want := m.Forward(dense, sparse)
	// DHE pipeline serves the DHE directly.
	pDHE := Build(m, core.DHE, core.Options{})
	gotDHE, err := pDHE.Logits(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(gotDHE, want, 1e-5) {
		t.Fatal("DHE pipeline differs from trained model")
	}
	// Storage pipelines serve materialized tables — same outputs.
	pScan := Build(m, core.LinearScan, core.Options{})
	gotScan, err := pScan.Logits(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(gotScan, want, 1e-5) {
		t.Fatal("materialized-table pipeline differs from DHE model")
	}
}

func TestBuildHybridMixedTechniques(t *testing.T) {
	cfg := tinyConfig(16)
	m := New(cfg, DHEVariedEmb)
	dense, sparse, _ := tinyBatch(cfg, 4, 17)
	want := m.Forward(dense, sparse)
	p := BuildHybrid(m, []core.Technique{core.LinearScan, core.DHE}, core.Options{})
	if p.Gens[0].Technique() != core.LinearScan || p.Gens[1].Technique() != core.DHE {
		t.Fatal("hybrid assignment not honored")
	}
	got, err := p.Logits(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, want, 1e-5) {
		t.Fatal("hybrid pipeline output differs")
	}
}

func TestDHEOnTableModelPanics(t *testing.T) {
	m := New(tinyConfig(18), TableEmb)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: table-trained model cannot serve DHE")
		}
	}()
	Build(m, core.DHE, core.Options{})
}

func TestNumBytesOrdering(t *testing.T) {
	// With non-trivial cardinalities, a DHE model is far smaller than the
	// table model (Table VI), and an ORAM pipeline is larger than a table
	// pipeline.
	cfg := Config{
		DenseDim: 3, EmbDim: 8,
		BottomHidden: []int{8}, TopHidden: []int{8},
		Cardinalities: []int{5000, 20000}, Seed: 19,
	}
	mt := New(cfg, TableEmb)
	md := New(cfg, DHEVariedEmb)
	if md.NumBytes() >= mt.NumBytes() {
		t.Fatalf("DHE model (%d B) should undercut table model (%d B)", md.NumBytes(), mt.NumBytes())
	}
	pTable := Build(mt, core.Lookup, core.Options{})
	pORAM := Build(mt, core.CircuitORAM, core.Options{})
	if pORAM.NumBytes() <= pTable.NumBytes() {
		t.Fatal("ORAM pipeline must cost more memory")
	}
}

func TestConfigInteractionWidth(t *testing.T) {
	cfg := tinyConfig(20)
	// 2 features + bottom = 3 vectors → 3 pairwise dots + EmbDim.
	if w := cfg.numInteractionFeatures(); w != cfg.EmbDim+3 {
		t.Fatalf("interaction width %d, want %d", w, cfg.EmbDim+3)
	}
}

func TestKaggleTerabyteConfigs(t *testing.T) {
	k := KaggleConfig(data.KaggleCardinalities, 1)
	if k.EmbDim != 16 || k.DenseDim != 13 || len(k.Cardinalities) != 26 {
		t.Fatalf("KaggleConfig=%+v", k)
	}
	tb := TerabyteConfig(data.TerabyteCardinalities, 1)
	if tb.EmbDim != 64 || len(tb.TopHidden) != 3 {
		t.Fatalf("TerabyteConfig=%+v", tb)
	}
}

func TestMismatchedSparsePanics(t *testing.T) {
	cfg := tinyConfig(21)
	m := New(cfg, TableEmb)
	dense, _, _ := tinyBatch(cfg, 2, 22)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward(dense, [][]uint64{{1}})
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig(30)
	src := New(cfg, DHEVariedEmb)
	dense, sparse, _ := tinyBatch(cfg, 3, 31)
	want := src.Forward(dense, sparse)

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(cfg, DHEVariedEmb) // same architecture, different seed state
	for _, p := range dst.Params() {
		p.Value.Fill(0) // prove loading overwrites
	}
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(dst.Forward(dense, sparse), want, 0) {
		t.Fatal("loaded model output differs")
	}
}

func TestCheckpointWrongKindErrors(t *testing.T) {
	cfg := tinyConfig(32)
	var buf bytes.Buffer
	if err := New(cfg, TableEmb).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := New(cfg, DHEVariedEmb).Load(&buf); err == nil {
		t.Fatal("loading a table checkpoint into a DHE model must error")
	}
}

func TestHybridPipelineTraceSecurity(t *testing.T) {
	// End-to-end Table II check at the pipeline level: a hybrid
	// (scan + DHE) DLRM produces identical access traces for any secret
	// sparse inputs.
	cfg := tinyConfig(60)
	m := New(cfg, DHEVariedEmb)
	tracer := memtrace.NewEnabled()
	p := BuildHybrid(m, []core.Technique{core.LinearScan, core.DHE},
		core.Options{Tracer: tracer, Threads: 1})
	dense, _, _ := tinyBatch(cfg, 2, 61)
	probe := func(a, b uint64) memtrace.Trace {
		tracer.Reset()
		p.Logits(dense, [][]uint64{{a, a}, {b, b}})
		return tracer.Snapshot()
	}
	ref := probe(0, 0)
	if len(ref) == 0 {
		t.Fatal("no trace recorded")
	}
	for _, secrets := range [][2]uint64{{10, 22}, {5, 0}, {10, 1}} {
		tr := probe(secrets[0], secrets[1])
		if d := ref.FirstDiff(tr); d != -1 {
			t.Fatalf("hybrid pipeline trace differs at %d for secrets %v", d, secrets)
		}
	}
}
