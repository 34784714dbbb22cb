package leakcheck

import (
	"testing"

	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

// TestPlannerSwapPassesPanel replays the adversarial panel across a forced
// *asymmetric per-shard* re-plan boundary: every input is served on both
// shards' batched scans, the planner hot-swaps shard 1 (only) to DHE
// through its real prepare→install→drain path, and the input is served
// again on both shards — one still scanning, one on DHE. The combined
// trace must be identical across the panel — which shard swapped, when it
// swapped, and every serving regime are functions of public state only.
func TestPlannerSwapPassesPanel(t *testing.T) {
	const rows, dim, batch, seed = 128, 4, 8, 3
	rep, err := Verify(PlannerFactory(rows, dim, seed), AdversarialPanel(rows, batch))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaky {
		t.Fatalf("planner swap boundary reported leaky: %v", rep.Divergences[0])
	}
	if rep.TraceLen == 0 {
		t.Fatal("empty trace — the audit never crossed the swap boundary")
	}
}

// TestPlannerAuditTeeth proves the audit catches the failure mode the
// per-shard planner's public-signal rule forbids: a planner that decides
// *which shard* to re-plan from the ids themselves. The leaky variant
// below swaps shard ids[0]%2 — so panel inputs of different parity put the
// scan/DHE boundary on different shards and the traces diverge.
func TestPlannerAuditTeeth(t *testing.T) {
	const rows, dim, seed = 64, 4, 5
	leaky := Factory{
		Name:   "planner-idswap",
		Secure: true, // claims security; the audit must prove otherwise
		New: func(tr *memtrace.Tracer) (core.Generator, error) {
			inner, err := newPlannerGen(rows, dim, seed, tr)
			if err != nil {
				return nil, err
			}
			return &idSwapGen{inner}, nil
		},
	}
	panel := Panel{
		{2, 9, 17, 33}, // even first id → shard 0 swaps, shard 1 keeps scanning
		{1, 9, 17, 33}, // odd first id → shard 1 swaps, shard 0 keeps scanning
	}
	rep, err := Verify(leaky, panel)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Leaky {
		t.Fatal("id-conditioned shard swap escaped the audit — the harness lost its teeth")
	}
}

// idSwapGen is the forbidden planner: the per-shard re-plan target keyed
// on a secret id. It reuses plannerGen's real swap machinery so the
// divergence the audit catches is exactly the moved shard boundary,
// nothing synthetic.
type idSwapGen struct {
	*plannerGen
}

func (g *idSwapGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	for _, sw := range g.shards {
		if _, err := sw.Generate(ids); err != nil {
			return nil, err
		}
	}
	// Secret-dependent shard choice: the bug. The swap itself is the real
	// planner lifecycle; only its *placement* leaks.
	target := 0
	if len(ids) > 0 {
		target = int(ids[0] % 2)
	}
	if err := g.pl.ForceSwapShard("audit", target, core.DHE); err != nil {
		return nil, err
	}
	if _, err := g.shards[0].Generate(ids); err != nil {
		return nil, err
	}
	return g.shards[1].Generate(ids)
}
