// Package dhe implements Deep Hash Embedding (Algorithm 1): a categorical
// feature value is encoded by k universal hash functions into a dense
// vector in [-1,1]^k, which a fully-connected decoder transforms into the
// embedding. Unlike a table lookup, every step is dense arithmetic whose
// memory access pattern is independent of the input value — which is why
// the paper proposes DHE as a side-channel-safe embedding generator.
//
// Two sizing policies from §IV-B1 are provided: Uniform (one architecture
// for every table) and Varied (architectures scaled down with table size;
// the paper scales by 0.125× per order-of-magnitude decrease from 10^7
// rows for the Criteo models).
package dhe

import (
	"math"
	"math/rand"

	"secemb/internal/hashenc"
	"secemb/internal/nn"
	"secemb/internal/tensor"
)

// Config describes a DHE architecture.
type Config struct {
	K      int   // number of hash functions (encoder width)
	Hidden []int // decoder hidden widths, e.g. {512, 256}
	Dim    int   // embedding dimension (decoder output width)
	Seed   int64
	// Gaussian selects the Box–Muller encoding variant of the original
	// DHE paper instead of the uniform [-1,1] scaling (Algorithm 1 uses
	// uniform; this is the ablation knob).
	Gaussian bool
}

// layerDims is the decoder's layer widths, [K, Hidden..., Dim].
func (c Config) layerDims() []int {
	return append(append([]int{c.K}, c.Hidden...), c.Dim)
}

// DecoderParams counts the FC decoder's parameters without building it.
// One id costs 2×weights FLOPs through the built decoder; the
// float32 footprint is 4×(weights+biases) bytes plus the hash parameters.
func (c Config) DecoderParams() (weights, biases int64) {
	dims := c.layerDims()
	for i := 0; i+1 < len(dims); i++ {
		weights += int64(dims[i]) * int64(dims[i+1])
		biases += int64(dims[i+1])
	}
	return weights, biases
}

// DHE is one deep-hash-embedding generator: encoder + FC decoder.
type DHE struct {
	Enc     *hashenc.Encoder         // uniform encoding (nil when Gaussian)
	GEnc    *hashenc.GaussianEncoder // Gaussian encoding (nil when uniform)
	Decoder *nn.Sequential
	K, Dim  int
	Threads int

	// Inference-mode state (SetInference): a reusable encoder buffer and a
	// decoder workspace make steady-state Generate allocation-free, which
	// keeps batch generation compute-bound — not GC-bound — as the paper's
	// latency crossover (Figures 4–5) requires.
	inference bool
	ws        *nn.Workspace
	encBuf    []float32
	encMat    *tensor.Matrix

	// Int8 serving state (EnableInt8): a quantized decoder sharing this
	// DHE's weights, used by inference-mode Generate when the accuracy
	// gate accepted it. Clones share the packed weights but own their
	// layer structs and workspaces.
	int8dec *nn.Sequential
	int8on  bool

	// mat is the cached materialization clone ToTable reuses across calls
	// (lazily built; nil until the first ToTable on a training-mode DHE),
	// and idBuf its reusable chunk id scratch.
	mat   *DHE
	idBuf []uint64
}

// New builds a DHE with Xavier-initialized decoder weights.
func New(cfg Config, rng *rand.Rand) *DHE {
	if cfg.K <= 0 || cfg.Dim <= 0 {
		panic("dhe: K and Dim must be positive")
	}
	d := &DHE{
		Decoder: nn.MLP(cfg.layerDims(), false, rng),
		K:       cfg.K,
		Dim:     cfg.Dim,
	}
	if cfg.Gaussian {
		d.GEnc = hashenc.NewGaussian(cfg.K, cfg.Seed)
	} else {
		d.Enc = hashenc.New(cfg.K, 0, cfg.Seed)
	}
	return d
}

// EncodeBatch maps ids to the decoder's input matrix (len(ids)×K).
//
// secemb:secret ids
func (d *DHE) EncodeBatch(ids []uint64) *tensor.Matrix {
	if d.GEnc != nil {
		return tensor.FromSlice(len(ids), d.K, d.GEnc.EncodeBatch(ids))
	}
	return tensor.FromSlice(len(ids), d.K, d.Enc.EncodeBatch(ids))
}

// Generate computes embeddings for a batch of ids: encode, then decode
// through the FC stack. O(k²) per id regardless of the (virtual) table
// size — the flat curves of Figures 4 and 5.
//
// In inference mode (SetInference/InferenceClone) the returned matrix
// aliases the generator's workspace: it is valid until the next Generate
// on this instance, and callers that retain it must copy. Training-mode
// Generate returns a fresh matrix, as Backward requires.
//
// secemb:secret ids
func (d *DHE) Generate(ids []uint64) *tensor.Matrix {
	if d.inference {
		// The int8 flag is public model configuration decided by the
		// accuracy gate at startup — branching on it reveals nothing about
		// the ids.
		dec := d.Decoder
		if d.int8on {
			dec = d.int8dec
		}
		dec.SetThreads(d.Threads)
		return dec.ForwardInto(d.ws, d.encodeReuse(ids))
	}
	d.Decoder.SetThreads(d.Threads)
	return d.Decoder.Forward(d.EncodeBatch(ids))
}

// SetInference toggles the allocation-free generation path: decoder layers
// stop retaining Backward caches and Generate reuses the encoder buffer
// and per-layer workspace across calls. Backward is unsupported while
// inference mode is on; switching it off restores training behavior.
func (d *DHE) SetInference(on bool) {
	d.inference = on
	for _, l := range d.Decoder.Layers {
		if lin, ok := l.(*nn.Linear); ok {
			lin.Inference = on
		}
	}
	if on {
		if d.ws == nil {
			d.ws = &nn.Workspace{}
			d.encMat = &tensor.Matrix{}
		}
	} else {
		d.ws, d.encMat, d.encBuf = nil, nil, nil
	}
}

// InferenceClone returns a DHE sharing this one's hash parameters and
// decoder weights but owning private forward state (workspace, encoder
// buffer, activation caches), already in inference mode. Concurrent
// serving replicas must each hold their own clone — forward state is
// mutated per call and must never be shared across goroutines.
func (d *DHE) InferenceClone() *DHE {
	c := &DHE{
		Enc:     d.Enc,
		GEnc:    d.GEnc,
		Decoder: d.Decoder.CloneForInference(),
		K:       d.K,
		Dim:     d.Dim,
		Threads: d.Threads,
		int8on:  d.int8on,
	}
	if d.int8dec != nil {
		// Packed weights are shared read-only; the clone owns its layer
		// structs (thread counts) and, via SetInference, its workspace.
		c.int8dec = d.int8dec.CloneForInference()
	}
	c.SetInference(true)
	return c
}

// Int8Gate configures EnableInt8's accuracy-delta check.
type Int8Gate struct {
	// MaxAbsErr is the largest tolerated |float32 − int8| over the eval
	// batch's embeddings (0 → default 0.1, a few percent of the unit-scale
	// outputs the decoders produce; deployments with differently scaled
	// embeddings should set their own bound).
	MaxAbsErr float64
}

// DefaultInt8MaxAbsErr is the accuracy gate's default tolerance.
const DefaultInt8MaxAbsErr = 0.1

// int8EvalBatch is the number of fixed public eval ids the gate replays.
const int8EvalBatch = 64

// Int8Report records an EnableInt8 decision.
type Int8Report struct {
	Enabled   bool    // accuracy gate accepted; int8 serves the hot path
	MaxAbsErr float64 // measured worst |float − int8| on the eval batch
	Threshold float64 // the bound it was judged against
}

// EnableInt8 quantizes the decoder (7-bit packed weights, 6-bit dynamic
// activations — internal/tensor/quant.go) and compares it against the
// float32 decoder on a fixed, public eval batch. If the worst absolute
// embedding error stays within the gate, the quantized decoder is
// installed and inference-mode Generate (and every future InferenceClone)
// runs int8; otherwise the DHE stays on float32 — the fallback the report
// records. The eval ids are compile-time constants spread over the id
// space: the decision depends only on model weights, never on request
// data. Call after training; re-enabling after further training re-runs
// the gate against the new weights.
func (d *DHE) EnableInt8(g Int8Gate) Int8Report {
	if g.MaxAbsErr <= 0 {
		g.MaxAbsErr = DefaultInt8MaxAbsErr
	}
	ids := make([]uint64, int8EvalBatch)
	for i := range ids {
		// Fixed public probe ids: a Weyl sequence covering the hash input
		// space regardless of the (virtual) table size.
		ids[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	enc := d.EncodeBatch(ids)
	ref := d.Decoder.CloneForInference().ForwardInto(&nn.Workspace{}, enc)
	qdec := nn.QuantizeSequential(d.Decoder)
	got := qdec.ForwardInto(&nn.Workspace{}, enc)
	rep := Int8Report{MaxAbsErr: tensor.MaxAbsDiff(got, ref), Threshold: g.MaxAbsErr}
	rep.Enabled = rep.MaxAbsErr <= rep.Threshold
	if rep.Enabled {
		d.int8dec, d.int8on = qdec, true
	} else {
		d.int8dec, d.int8on = nil, false
	}
	d.mat = nil // the cached ToTable clone may hold a stale decoder
	return rep
}

// Int8Active reports whether inference-mode Generate runs the quantized
// decoder.
func (d *DHE) Int8Active() bool { return d.int8on }

// DecoderLayerBytes lists the resident footprint of each parameterized
// layer of the decoder that actually serves Generate — the quantized stack
// when int8 is active, the float stack otherwise. Trace synthesis uses it
// so recorded sweeps match the bytes really touched.
func (d *DHE) DecoderLayerBytes() []int64 {
	dec := d.Decoder
	if d.int8on {
		dec = d.int8dec
	}
	var out []int64
	for _, l := range dec.Layers {
		if sz, ok := l.(interface{ NumBytes() int64 }); ok {
			out = append(out, sz.NumBytes())
		}
	}
	return out
}

// encodeReuse encodes ids into the reusable inference buffer, growing it
// only when a larger batch arrives.
//
// secemb:secret ids
func (d *DHE) encodeReuse(ids []uint64) *tensor.Matrix {
	need := len(ids) * d.K
	if cap(d.encBuf) < need {
		d.encBuf = make([]float32, need)
	}
	buf := d.encBuf[:need]
	if d.GEnc != nil {
		d.GEnc.EncodeBatchInto(ids, buf)
	} else {
		d.Enc.EncodeBatchInto(ids, buf)
	}
	d.encMat.Rows, d.encMat.Cols, d.encMat.Data = len(ids), d.K, buf
	return d.encMat
}

// Backward propagates a batch gradient through the decoder (the encoder
// has no trainable parameters). Callers drive the optimizer.
func (d *DHE) Backward(grad *tensor.Matrix) {
	d.Decoder.Backward(grad)
}

// Params exposes the decoder parameters for optimization.
func (d *DHE) Params() []*nn.Param { return d.Decoder.Params() }

// NumBytes is the model footprint: hash parameters + decoder weights.
// Independent of the virtual table size — Table VI's orders-of-magnitude
// memory reduction.
func (d *DHE) NumBytes() int64 {
	enc := int64(0)
	if d.GEnc != nil {
		enc = d.GEnc.NumBytes()
	} else {
		enc = d.Enc.NumBytes()
	}
	return enc + d.Decoder.NumBytes()
}

// ToTable materializes the trained DHE into a rows×Dim embedding table by
// evaluating every valid input — the paper's offline hybrid-model
// preparation ("use the trained DHEs to create table representations
// which store the DHEs' outputs for all valid inputs", §IV-C1).
func (d *DHE) ToTable(rows int) *tensor.Matrix {
	// Materialization is a tight Generate loop; run it through a private
	// inference clone so every chunk reuses one workspace instead of
	// allocating rows/chunk fresh matrices. The clone shares weights, so
	// the numbers are identical and d's training state is untouched. The
	// clone — workspace slabs, encoder buffer, id scratch — is cached on
	// the DHE and reused by later ToTable calls (grow once, then
	// steady-state materialization allocates only the returned table).
	// Weight *values* may change between calls (training epochs); weight
	// shapes cannot, so reuse stays sound — but a post-training
	// EnableInt8 invalidates the cache below.
	// ToTable is not safe for concurrent calls on the same DHE.
	gen := d
	if !d.inference {
		if d.mat == nil || d.mat.int8on != d.int8on {
			d.mat = d.InferenceClone()
		}
		gen = d.mat
	}
	out := tensor.New(rows, d.Dim)
	const chunk = 4096
	if cap(gen.idBuf) < chunk {
		gen.idBuf = make([]uint64, 0, chunk)
	}
	ids := gen.idBuf
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		ids = ids[:0]
		for i := lo; i < hi; i++ {
			ids = append(ids, uint64(i))
		}
		emb := gen.Generate(ids)
		copy(out.Data[lo*d.Dim:hi*d.Dim], emb.Data)
	}
	return out
}

// UniformConfig is the paper's fixed DLRM architecture (Table IV):
// k = 1024 and a 512-256-dim decoder.
func UniformConfig(dim int, seed int64) Config {
	return Config{K: 1024, Hidden: []int{512, 256}, Dim: dim, Seed: seed}
}

// VariedScale returns the Varied sizing factor for a table of n rows:
// 0.125× per order-of-magnitude decrease from 10^7 rows (Table IV),
// clamped to [1/64, 1].
func VariedScale(n int) float64 {
	if n <= 0 {
		panic("dhe: table size must be positive")
	}
	decades := math.Log10(1e7 / float64(n))
	if decades <= 0 {
		return 1
	}
	s := math.Pow(0.125, decades)
	if s < 1.0/64 {
		s = 1.0 / 64
	}
	return s
}

// VariedConfig scales the Uniform architecture down for a table of n rows.
// Widths are rounded to multiples of 16 with a floor of 32 to keep the
// decoder expressive enough to match table accuracy on small features.
func VariedConfig(dim, n int, seed int64) Config {
	s := VariedScale(n)
	scale := func(w int) int {
		v := int(math.Round(float64(w) * s / 16.0))
		if v < 2 {
			v = 2
		}
		return v * 16
	}
	return Config{
		K:      scale(1024),
		Hidden: []int{scale(512), scale(256)},
		Dim:    dim,
		Seed:   seed,
	}
}

// LLMConfig is the paper's GPT-2 setup (§VI-A3): 4 FC layers with both k
// and the internal widths equal to 2× the embedding dimension.
func LLMConfig(dim int, seed int64) Config {
	w := 2 * dim
	return Config{K: w, Hidden: []int{w, w, w}, Dim: dim, Seed: seed}
}
