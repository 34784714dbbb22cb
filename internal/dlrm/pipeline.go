package dlrm

import (
	"fmt"
	"time"

	"secemb/internal/core"
	"secemb/internal/nn"
	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Pipeline is the inference-time DLRM: the trained MLPs plus one
// core.Generator per sparse feature. Swapping generators is how the
// protection techniques — and the hybrid allocation — are deployed without
// touching the rest of the model (Algorithm 2's online stage).
type Pipeline struct {
	Cfg    Config
	Bottom *nn.Sequential
	Top    *nn.Sequential
	Gens   []core.Generator

	// Reusable forward state: per-MLP workspaces and the embedding slice,
	// reused across requests so steady-state Predict stays allocation-
	// light. A pipeline serves one request at a time (its generators hold
	// mutable state), so the buffers are never shared across goroutines.
	bottomWS, topWS nn.Workspace
	z               []*tensor.Matrix

	// Per-stage latency histograms (dlrm_stage_ns{stage=...}); all nil
	// until SetObserver, and nil histograms observe as no-ops.
	stBottom, stEmbed, stInteract, stTop *obs.Histogram
}

// NewPipeline assembles an inference pipeline from a trained model's MLPs
// and explicit generators (one per sparse feature). The MLPs are cloned
// for inference (shared weights, private activation caches), so multiple
// pipelines built from one model can serve concurrently — each pipeline
// instance itself handles one request at a time (its generators hold
// mutable ORAM state).
func NewPipeline(m *Model, gens []core.Generator) *Pipeline {
	if len(gens) != len(m.Cfg.Cardinalities) {
		panic(fmt.Sprintf("dlrm: %d generators for %d features", len(gens), len(m.Cfg.Cardinalities)))
	}
	return &Pipeline{
		Cfg:    m.Cfg,
		Bottom: m.Bottom.CloneForInference(),
		Top:    m.Top.CloneForInference(),
		Gens:   gens,
	}
}

// Build converts a trained model into a pipeline where every sparse
// feature uses the given technique. Table-trained models can serve
// Lookup/LinearScan/ORAM directly from their weights; DHE-trained models
// serve DHE directly and *materialize* tables (DHE→table conversion,
// §IV-C1) for the storage-based techniques.
func Build(m *Model, tech core.Technique, opts core.Options) *Pipeline {
	techs := make([]core.Technique, len(m.Embs))
	for i := range techs {
		techs[i] = tech
	}
	return BuildHybrid(m, techs, opts)
}

// BuildHybrid converts a trained model into a pipeline with a per-feature
// technique assignment — the hybrid scheme's deployment step (Algorithm 3
// decides techs; this materializes the representations).
func BuildHybrid(m *Model, techs []core.Technique, opts core.Options) *Pipeline {
	if len(techs) != len(m.Embs) {
		panic(fmt.Sprintf("dlrm: %d techniques for %d features", len(techs), len(m.Embs)))
	}
	gens := make([]core.Generator, len(m.Embs))
	for f, rep := range m.Embs {
		o := opts
		o.Region = fmt.Sprintf("feat%d", f)
		o.Seed = opts.Seed + int64(f)
		gens[f] = core.BuildGenerator(rep, m.Cfg.Cardinalities[f], techs[f], o)
	}
	return NewPipeline(m, gens)
}

// SetObserver registers per-stage latency histograms
// (dlrm_stage_ns{stage=bottom|embed|interact|top}) in reg. A nil registry
// (or never calling this) leaves the pipeline uninstrumented.
func (p *Pipeline) SetObserver(reg *obs.Registry) {
	p.stBottom = reg.Histogram("dlrm_stage_ns", "stage", "bottom")
	p.stEmbed = reg.Histogram("dlrm_stage_ns", "stage", "embed")
	p.stInteract = reg.Histogram("dlrm_stage_ns", "stage", "interact")
	p.stTop = reg.Histogram("dlrm_stage_ns", "stage", "top")
}

// Predict runs inference, returning CTR probabilities (batch×1).
// Sequential sparse-feature processing, as in the paper's experiments
// (§IV-C1).
func (p *Pipeline) Predict(dense *tensor.Matrix, sparse [][]uint64) (*tensor.Matrix, error) {
	logits, err := p.Logits(dense, sparse)
	if err != nil {
		return nil, err
	}
	s := &nn.Sigmoid{}
	return s.Forward(logits), nil
}

// Logits runs inference up to the CTR logit. Errors from the generators
// (out-of-range ids) are returned annotated with the sparse-feature index.
func (p *Pipeline) Logits(dense *tensor.Matrix, sparse [][]uint64) (*tensor.Matrix, error) {
	if len(sparse) != len(p.Gens) {
		return nil, fmt.Errorf("dlrm: %d sparse features, pipeline has %d", len(sparse), len(p.Gens))
	}
	start := time.Now()
	z := append(p.z[:0], p.Bottom.ForwardInto(&p.bottomWS, dense))
	start = stamp(p.stBottom, start)
	for f, g := range p.Gens {
		emb, err := g.Generate(sparse[f])
		if err != nil {
			p.z = z[:0]
			return nil, fmt.Errorf("dlrm: feature %d: %w", f, err)
		}
		z = append(z, emb)
	}
	p.z = z
	start = stamp(p.stEmbed, start)
	inter := interact(z)
	start = stamp(p.stInteract, start)
	out := p.Top.ForwardInto(&p.topWS, tensor.Concat(z[0], inter))
	stamp(p.stTop, start)
	return out, nil
}

// stamp observes the elapsed time since start into h (no-op when h is nil)
// and returns the new stage start.
func stamp(h *obs.Histogram, start time.Time) time.Time {
	now := time.Now()
	h.ObserveDuration(now.Sub(start))
	return now
}

// NumBytes is the deployed footprint: MLPs + all generator
// representations.
func (p *Pipeline) NumBytes() int64 {
	n := p.Bottom.NumBytes() + p.Top.NumBytes()
	for _, g := range p.Gens {
		n += g.NumBytes()
	}
	return n
}
