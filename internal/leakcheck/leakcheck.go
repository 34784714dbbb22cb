// Package leakcheck is the trace-equivalence leakage audit: it mechanically
// verifies that a generator's memory access pattern is independent of its
// secret inputs, in the style of Privado's input-obliviousness checking.
//
// The method: construct a *fresh* generator per panel input from the same
// seed, run the same-shaped batch of adversarially chosen ids through it,
// canonicalize the recorded trace, and demand exact equality against the
// first input's trace. For deterministic oblivious schemes (linear scan,
// DHE) canonicalization is the identity and the check is raw trace
// equality. For tree ORAMs the bucket index within a level is the
// randomized component — the posmap value of the requested id steers the
// fetch path, and core keys each ORAM's leaves from crypto/rand, so no two
// builds share them — so tree-region accesses are first mapped to their
// level (memtrace.CanonicalizeTreeRegions), turning the deterministic
// invariant "one bucket per level, root to leaf, fixed order" into an
// exactly-checkable sequence. Leaf-choice uniformity, the
// randomized half of the ORAM argument, is covered by the chi-square tests
// in internal/oram.
//
// A harness like this is only trustworthy if it demonstrably has teeth: the
// plain table lookup must be reported leaky, with the correct offset of the
// first input-dependent access. Verify makes no assumption either way — it
// reports what the traces show — and the test suite plus cmd/leakcheck
// treat "lookup not flagged" as a harness failure.
package leakcheck

import (
	"fmt"
	"slices"
	"strings"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/oram"
)

// Panel is a set of same-shaped secret input batches. Verify compares the
// canonical trace of every input against the first, so inputs[0] is the
// reference.
type Panel [][]uint64

// Factory describes one audit target: how to build a fresh generator wired
// to a tracer.
type Factory struct {
	// Name labels the target in reports ("dhe", "path", …).
	Name string
	// Rows is the table size New builds, hence the id space the target's
	// panel is drawn from (AdversarialPanel(Rows, batch)).
	Rows int
	// Secure is the expected verdict: true for oblivious techniques (a
	// divergence is a regression), false for the leaky baseline (a clean
	// report means the harness lost its teeth).
	Secure bool
	// New constructs a fresh generator recording into tr. It is called once
	// per panel input, so every run starts from the same representation.
	New func(tr *memtrace.Tracer) (core.Generator, error)
	// MustTouch, when set, names the structure the target exists to audit:
	// Verify refuses a reference trace in which no region contains it.
	MustTouch string
}

// Divergence records one panel input whose canonical trace differed from
// the reference input's.
type Divergence struct {
	// Input is the panel index (≥1) that diverged from input 0.
	Input int `json:"input"`
	// Offset is the first differing canonical access (FirstDiff
	// convention: length differences report the shorter length).
	Offset int `json:"offset"`
	// Want and Got render the reference and divergent access at Offset
	// ("<end>" when one trace ended).
	Want string `json:"want"`
	Got  string `json:"got"`
	// RefLen and GotLen are the compared canonical trace lengths.
	RefLen int `json:"ref_len"`
	GotLen int `json:"got_len"`
	// RegionDiffs counts differing positions per trace region.
	RegionDiffs map[string]int `json:"region_diffs,omitempty"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("input %d diverges at offset %d: want %s, got %s (lengths %d vs %d)",
		d.Input, d.Offset, d.Want, d.Got, d.RefLen, d.GotLen)
}

// Report is the structured result of auditing one target against a panel.
type Report struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows,omitempty"`
	Secure    bool   `json:"secure"` // expected verdict (from the Factory)
	PanelSize int    `json:"panel_size"`
	BatchSize int    `json:"batch_size"`
	// TraceLen is the canonical reference trace length (input 0).
	TraceLen int `json:"trace_len"`
	// Leaky is the observed verdict: at least one panel input produced a
	// canonical trace different from the reference.
	Leaky       bool         `json:"leaky"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Pass reports whether the observed verdict matches the expectation: secure
// targets must not leak, and the insecure baseline must be caught leaking.
func (r *Report) Pass() bool { return r.Secure != r.Leaky }

// Verify audits one factory against a panel. It returns an error only when
// the audit itself cannot run (bad panel shape, construction or generation
// failure); a detected leak is reported in the Report, not as an error.
func Verify(f Factory, panel Panel) (*Report, error) {
	if len(panel) < 2 {
		return nil, fmt.Errorf("leakcheck: panel needs ≥2 inputs, got %d", len(panel))
	}
	batch := len(panel[0])
	for i, ids := range panel {
		if len(ids) != batch {
			return nil, fmt.Errorf("leakcheck: panel input %d has %d ids, want %d (inputs must be same-shaped)",
				i, len(ids), batch)
		}
	}
	run := func(ids []uint64) (memtrace.Trace, error) {
		tr := memtrace.NewEnabled()
		g, err := f.New(tr)
		if err != nil {
			return nil, fmt.Errorf("leakcheck: %s: construct: %w", f.Name, err)
		}
		if _, err := g.Generate(ids); err != nil {
			return nil, fmt.Errorf("leakcheck: %s: generate %v: %w", f.Name, ids, err)
		}
		// Canonical form: ORAM tree-bucket accesses map to their tree level;
		// everything else is compared verbatim.
		return memtrace.CanonicalizeTreeRegions(tr.Snapshot(), oram.RegionSuffixTree), nil
	}

	ref, err := run(panel[0])
	if err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("leakcheck: %s: empty reference trace — instrumentation inactive", f.Name)
	}
	if f.MustTouch != "" && !slices.ContainsFunc(ref, func(a memtrace.Access) bool {
		return strings.Contains(a.Region, f.MustTouch)
	}) {
		return nil, fmt.Errorf("leakcheck: %s: reference trace never touched a %q region — the target lost its subject", f.Name, f.MustTouch)
	}
	rep := &Report{
		Name:      f.Name,
		Rows:      f.Rows,
		Secure:    f.Secure,
		PanelSize: len(panel),
		BatchSize: batch,
		TraceLen:  len(ref),
	}
	for i, ids := range panel[1:] {
		got, err := run(ids)
		if err != nil {
			return nil, err
		}
		d := memtrace.Compare(ref, got)
		if d.Equal() {
			continue
		}
		rep.Leaky = true
		rep.Divergences = append(rep.Divergences, Divergence{
			Input:       i + 1,
			Offset:      d.First,
			Want:        accessAt(ref, d.First),
			Got:         accessAt(got, d.First),
			RefLen:      d.LenA,
			GotLen:      d.LenB,
			RegionDiffs: d.Regions,
		})
	}
	return rep, nil
}

func accessAt(t memtrace.Trace, i int) string {
	if i < 0 || i >= len(t) {
		return "<end>"
	}
	return t[i].String()
}
