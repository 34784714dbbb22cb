package planner

import "secemb/internal/core"

// Signal is one technique's observed service window on one shard:
// aggregate counts and latencies sampled from the shard's swap points
// between two planner passes.
//
// Every field is public in the threat model (§V-B): batch *sizes* and
// *latencies* are observable by the adversary anyway, and none of them is
// derived from individual ids — Swappable.Generate, the one place they are
// recorded, adds len(ids) and a clock difference and nothing else. The
// planner never sees an id, and the shard label is deployment topology
// (which replica group a generator serves), not request data.
type Signal struct {
	// Batches and IDs are the window's Generate calls and total ids served.
	Batches int64
	IDs     int64
	// MeanBatch is IDs/Batches for the window (0 when idle).
	MeanBatch float64
	// MeanNs is the window's mean per-batch latency (0 when idle).
	MeanNs float64
	// EWMANs is the smoothed per-batch latency across windows; it survives
	// idle windows unchanged, so a technique that stops serving keeps its
	// last known cost until it is observed again.
	EWMANs float64
	// EWMABatch is the smoothed batch size paired with EWMANs — the
	// operating point the latency was observed at, which the model needs to
	// rescale costs to a different batch size.
	EWMABatch float64
}

// Observed reports whether the technique has ever been measured.
func (s Signal) Observed() bool { return s.EWMANs > 0 }

// sampleKey identifies one EWMA stream: a technique on a shard (the
// shard's ShardLabel).
type sampleKey struct {
	tech  core.Technique
	shard string
}

// sampler turns the monotone per-technique totals of a shard's swap points
// into windowed deltas and EWMAs. One sampler belongs to one planner;
// callers serialize access (the planner samples under its own lock).
type sampler struct {
	alpha float64
	state map[sampleKey]*sampleState
}

type sampleState struct {
	calls, ids, sumNs int64 // last absolute readings
	sig               Signal
}

func newSampler(alpha float64) *sampler {
	return &sampler{alpha: alpha, state: map[sampleKey]*sampleState{}}
}

func (s *sampler) stream(tech core.Technique, shard string) *sampleState {
	k := sampleKey{tech: tech, shard: shard}
	st, ok := s.state[k]
	if !ok {
		st = &sampleState{}
		s.state[k] = st
	}
	return st
}

// sample sums tech's totals over the shard's replicas, folds the delta
// since the last call into the EWMA, and returns the up-to-date signal.
func (s *sampler) sample(tech core.Technique, shard string, replicas []*Swappable) Signal {
	st := s.stream(tech, shard)
	var calls, ids, sumNs int64
	for _, sw := range replicas {
		c := sw.servedBy(tech)
		calls += c.calls.Load()
		ids += c.ids.Load()
		sumNs += c.ns.Load()
	}
	dCalls := calls - st.calls
	dIDs := ids - st.ids
	dSum := sumNs - st.sumNs
	st.calls, st.ids, st.sumNs = calls, ids, sumNs

	sig := st.sig
	sig.Batches, sig.IDs, sig.MeanBatch, sig.MeanNs = dCalls, dIDs, 0, 0
	if dCalls > 0 {
		sig.MeanBatch = float64(dIDs) / float64(dCalls)
		sig.MeanNs = float64(dSum) / float64(dCalls)
		if sig.EWMANs == 0 {
			sig.EWMANs = sig.MeanNs
			sig.EWMABatch = sig.MeanBatch
		} else {
			sig.EWMANs += s.alpha * (sig.MeanNs - sig.EWMANs)
			sig.EWMABatch += s.alpha * (sig.MeanBatch - sig.EWMABatch)
		}
	}
	st.sig = sig
	return sig
}

// seed pre-loads one stream's EWMAs — the persisted-cost-model restore
// path. Absolute counter anchors stay zero: the first live window folds
// into the seeded EWMA instead of starting from the analytic prior.
func (s *sampler) seed(tech core.Technique, shard string, ewmaNs, ewmaBatch float64) {
	if ewmaNs <= 0 {
		return
	}
	st := s.stream(tech, shard)
	st.sig.EWMANs = ewmaNs
	st.sig.EWMABatch = ewmaBatch
}
