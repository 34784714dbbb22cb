package backends

import (
	"context"
	"testing"

	"secemb/internal/core"
)

// TestDLRMPoolSteadyStateAllocs is the end-to-end allocation-regression
// gate for the serving hot path: once the task pool, forward workspaces,
// and DHE inference buffers are warm, a pooled DLRM round trip must
// allocate only a small constant number of objects (the response Probs
// matrix callers retain plus scheduler bookkeeping) — not per-layer
// tensors.
func TestDLRMPoolSteadyStateAllocs(t *testing.T) {
	reps, cfg := newReplicas(t, 1, core.DHE)
	pool := perRequestGroup(dlrmBackends(reps, 0), 2)
	defer pool.Close()
	dense, sparse := sampleRequest(cfg, 7)
	req := &DLRMRequest{Dense: dense, Sparse: sparse}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm task pool + workspaces
		if r := pool.Do(ctx, 0, req); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	allocs := testing.AllocsPerRun(25, func() {
		if r := pool.Do(ctx, 0, req); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if allocs > 32 {
		t.Fatalf("steady-state pooled Predict allocates %.0f objects per call", allocs)
	}
}
