package leakcheck

import (
	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/planner"
	"secemb/internal/tensor"
)

// PlannerFactory audits the adaptive planner's per-shard hot-swap
// lifecycle: each panel input is served once on both shards of a two-shard
// table (incumbent batched scan everywhere), then a forced re-plan swaps
// *only shard 1* to DHE through the real planner swap path (prepare →
// install → drain) while shard 0 keeps its scan, and the same input is
// served again on both shards. The recorded trace therefore spans an
// asymmetric per-shard swap boundary — scan sweeps, swap of one shard,
// scan sweep + DHE sweep — and trace equality across the panel proves that
// per-shard technique selection, swap timing, and every serving regime are
// independent of the ids: a planner that decided *which shard* to swap (or
// when) from id values would move the boundary between shards and diverge.
// See TestPlannerAuditTeeth for the counterexample.
func PlannerFactory(rows, dim int, seed int64) Factory {
	return Factory{
		Name:   "planner",
		Rows:   rows,
		Secure: true,
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			return newPlannerGen(rows, dim, seed, tr)
		},
	}
}

// plannerGen replays one batch across a forced asymmetric re-plan. Fresh
// per panel input (Factory.New), so every run sees an identical planner
// lifecycle over tables built from one seed; only the secret ids differ.
type plannerGen struct {
	core.Generator // shard 0's swap point: the table's public shape
	shards         []*planner.Swappable
	pl             *planner.Planner
}

func newPlannerGen(rows, dim int, seed int64, tr *memtrace.Tracer) (*plannerGen, error) {
	build := func(shard int, tech core.Technique) (core.Generator, error) {
		return core.New(tech, rows, dim, core.Options{Seed: seed, Tracer: tr, Threads: 1})
	}
	shards := make([]*planner.Swappable, 2)
	for i := range shards {
		scan, err := build(i, core.LinearScanBatched)
		if err != nil {
			return nil, err
		}
		shards[i] = planner.NewSwappable(scan)
	}
	pl := planner.New(planner.Config{})
	if err := pl.Manage(planner.Table{
		Name: "audit", Rows: rows, Dim: dim, Build: build,
		Shards:  [][]*planner.Swappable{{shards[0]}, {shards[1]}},
		Initial: core.LinearScanBatched,
	}); err != nil {
		return nil, err
	}
	return &plannerGen{Generator: shards[0], shards: shards, pl: pl}, nil
}

// Generate serves the batch on both shards' scans, forces the scan→DHE
// re-plan of shard 1 only (shard 0 keeps serving scan — the asymmetric
// split), and serves the batch on both shards again — one trace across the
// per-shard swap boundary.
//
// secemb:secret ids
func (p *plannerGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	for _, sw := range p.shards {
		if _, err := sw.Generate(ids); err != nil {
			return nil, err
		}
	}
	if err := p.pl.ForceSwapShard("audit", 1, core.DHE); err != nil {
		return nil, err
	}
	if _, err := p.shards[0].Generate(ids); err != nil {
		return nil, err
	}
	return p.shards[1].Generate(ids)
}
