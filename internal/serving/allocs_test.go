package serving

import (
	"context"
	"testing"
	"time"

	"secemb/internal/obs"
)

// forget drops the shard's arrival history, so the next request meets the
// no-history verdict: held.
func (a *arrivals) forget() {
	a.mu.Lock()
	a.last, a.gap = time.Time{}, 0
	a.mu.Unlock()
}

// TestDoSteadyStateAllocs is the scheduler-layer allocation-regression
// gate: once the task pool and worker scratch are warm, a Do round trip
// through the stack (enqueue → gather → execute → respond) must allocate
// only the fake backend's result slice and its boxed payload echo —
// independent of traffic volume and of whether the batch was flushed
// greedily or sat out the coalescing hold on the worker's reused timer.
// Every event is recorded in fixed-size obs instruments, so accounting
// contributes nothing at steady state (the regression this gate exists to
// catch).
func TestDoSteadyStateAllocs(t *testing.T) {
	const runs = 50
	for _, tc := range []struct {
		name string
		cfg  CoalesceConfig
	}{
		{name: "greedy"},
		// A lone caller cannot keep a shard dense (every held call is a
		// gap longer than the window), so this row forgets the history
		// before each call; the flush counter proves every call parked.
		{name: "held", cfg: CoalesceConfig{MaxWait: 200 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held := tc.cfg.MaxWait > 0
			reg := obs.NewRegistry()
			g := NewGroup([]Backend{&fakeBackend{maxBatch: 4}}, GroupConfig{Coalesce: tc.cfg}, WithObserver(reg))
			defer g.Close()
			ctx := context.Background()
			do := func(payload any) {
				if held {
					g.shards[0].arrivals.forget()
				}
				if r := g.Do(ctx, 7, payload); r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			for i := 0; i < 8; i++ { // warm task pool and worker scratch
				do("warm")
			}
			deadline := reg.Counter("serving_flush_total", "cause", "deadline")
			before := deadline.Value()
			allocs := testing.AllocsPerRun(runs, func() { do("steady") })
			if allocs > 2 {
				t.Fatalf("steady-state Do allocates %.0f objects per call, want ≤ 2", allocs)
			}
			// AllocsPerRun calls f once more than runs, to warm up.
			if got := deadline.Value() - before; held && got != runs+1 {
				t.Fatalf("%d of %d calls sat out the hold; the row must measure the held path", got, runs+1)
			}
		})
	}
}
