package planner_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/planner"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

// retireGuard wraps a generator displaced (or about to be displaced) by a
// swap: once retired, any further Generate is a stale-generator read — a
// request served by a representation the planner already handed back for
// release. Install's drain barrier promises that never happens.
type retireGuard struct {
	core.Generator
	retired atomic.Bool
	stale   *atomic.Int64
}

func (g *retireGuard) Generate(ids []uint64) (*tensor.Matrix, error) {
	if g.retired.Load() {
		g.stale.Add(1)
	}
	return g.Generator.Generate(ids)
}

// TestSwapUnderFire hammers a serving.Group with concurrent Predict
// traffic while the planner force-swaps scan→DHE→scan underneath it. The
// assertions are the swap lifecycle's whole contract: zero
// dropped/errored requests, and zero reads of a drained (retired)
// generator. Run under -race (the Makefile race target covers this
// package) it additionally proves the install path is data-race-free
// against in-flight Generates and against the sampler reading the swap
// points' counters mid-fire.
func TestSwapUnderFire(t *testing.T) {
	const (
		rows, dim = 256, 16
		replicas  = 2
		clients   = 8
		swaps     = 6
	)
	reg := obs.NewRegistry()
	var stale atomic.Int64
	var guardMu sync.Mutex
	var liveGuards []*retireGuard

	build := func(_ int, tech core.Technique) (core.Generator, error) {
		g, err := core.New(tech, rows, dim, core.Options{Seed: 7, Threads: 1, Obs: reg})
		if err != nil {
			return nil, err
		}
		wrapped := &retireGuard{Generator: g, stale: &stale}
		guardMu.Lock()
		liveGuards = append(liveGuards, wrapped)
		guardMu.Unlock()
		return wrapped, nil
	}

	sws := make([]*planner.Swappable, replicas)
	bes := make([]serving.Backend, replicas)
	shards := make([][]*planner.Swappable, replicas)
	for i := range sws {
		g, err := build(i, core.LinearScanBatched)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = planner.NewSwappable(g)
		bes[i] = backends.NewEmbedding(sws[i], 8)
		// One replica per shard, mirroring the group's default one-shard-
		// per-backend assignment; ForceSwap drives all shards, so the storm
		// still exercises install+drain on every replica concurrently with
		// traffic.
		shards[i] = []*planner.Swappable{sws[i]}
	}
	group := serving.NewGroup(bes, serving.GroupConfig{QueueDepth: 64})

	p := planner.New(planner.Config{Reg: reg})
	if err := p.Manage(planner.Table{
		Name: "fire", Rows: rows, Dim: dim, Build: build,
		Shards: shards, Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}

	// Fire: concurrent clients predicting as fast as the group serves.
	stop := make(chan struct{})
	var served atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := group.Do(context.Background(), uint64(c), []uint64{uint64((c*31 + i) % rows)})
				if r.Err != nil {
					errs <- r.Err
					return
				}
				if m, ok := r.Value.(*tensor.Matrix); !ok || m.Rows != 1 || m.Cols != dim {
					errs <- r.Err
					return
				}
				served.Add(1)
			}
		}(c)
	}

	// Swap storm: scan→DHE→scan, retiring each displaced generation the
	// moment ForceSwap (install + drain on every replica) returns.
	for k := 0; k < swaps; k++ {
		tech := core.DHE
		if k%2 == 1 {
			tech = core.LinearScanBatched
		}
		guardMu.Lock()
		displaced := make([]*retireGuard, len(liveGuards))
		copy(displaced, liveGuards)
		liveGuards = liveGuards[:0]
		guardMu.Unlock()
		if err := p.ForceSwap("fire", tech); err != nil {
			close(stop)
			t.Fatalf("swap %d to %v: %v", k, tech, err)
		}
		// ForceSwap returned ⇒ every replica drained its old generator.
		for _, g := range displaced {
			g.retired.Store(true)
		}
		time.Sleep(5 * time.Millisecond) // let traffic flow on the new generation
		p.ReplanNow()                    // the sampler reads the swap points' counters while Generates write them
	}
	close(stop)
	wg.Wait()
	group.Close()

	select {
	case err := <-errs:
		t.Fatalf("request dropped/errored during swaps: %v", err)
	default:
	}
	if n := stale.Load(); n != 0 {
		t.Fatalf("%d stale-generator reads after drain", n)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served — the test never exercised the swap window")
	}
	techs, err := p.ShardTechniques("fire")
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range techs {
		if tech != core.LinearScanBatched {
			t.Fatalf("final techniques %v, want all scanb after an even swap count", techs)
		}
	}
}
