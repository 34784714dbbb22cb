package serving

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"secemb/internal/obs"
)

const us = time.Microsecond

// TestHoldGateIsAFunctionOfArrivalTimes drives the density gate with
// synthetic admission timestamps — no sleeps, no wall clock — and checks
// its verdict after every arrival past the warm-up, since the worker may
// ask at any of them. gaps returns the next inter-arrival gap.
func TestHoldGateIsAFunctionOfArrivalTimes(t *testing.T) {
	const n = 4096
	for _, tc := range []struct {
		name    string
		maxWait time.Duration
		gaps    func(rng *rand.Rand) time.Duration
		warmup  int // arrivals before verdicts are checked
		armed   bool
	}{
		{
			// dhe-batch, scan-small: one closed-loop caller.
			name: "lone caller 1ms apart", maxWait: 200 * us, warmup: 64, armed: false,
			gaps: func(*rand.Rand) time.Duration { return time.Millisecond },
		},
		{
			// front-door per shard: 8 closed-loop callers, ≈1 ms round trip.
			name: "8 callers, 130us mean gap", maxWait: 200 * us, warmup: 0, armed: true,
			gaps: func(rng *rand.Rand) time.Duration {
				return time.Duration(rng.ExpFloat64() * float64(130*us))
			},
		},
		{
			// What closed-loop callers really do: return in bursts. A
			// 100 µs window puts the gate's boundary at 200 µs; the mean
			// gap (≈136 µs) is inside it, each silence between bursts
			// three to four times it, and an estimate that forgets within
			// a burst (1/α = 8) calls the shard sparse after every one.
			name: "bursts of 5-6 every 750us", maxWait: 100 * us, warmup: 0, armed: true,
			gaps: func() func(*rand.Rand) time.Duration {
				left := 0
				return func(rng *rand.Rand) time.Duration {
					if left == 0 {
						left = 4 + rng.Intn(2)
						return 650*us + time.Duration(rng.Intn(200))*us
					}
					left--
					return 10*us + time.Duration(rng.Intn(20))*us
				}
			}(),
		},
		{
			// mixed-open per shard.
			name: "poisson 1000/s", maxWait: 200 * us, warmup: 128, armed: false,
			gaps: func(rng *rand.Rand) time.Duration {
				return time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
			},
		},
		{
			name: "multi-second window, sub-second gaps", maxWait: 5 * time.Second, warmup: 0, armed: true,
			gaps: func(rng *rand.Rand) time.Duration { return time.Duration(rng.Intn(int(time.Second))) },
		},
		{
			// Between the regimes: 1.6 windows apart is still held, 2.5
			// is not — the boundary is denseGaps windows.
			name: "320us apart", maxWait: 200 * us, warmup: 0, armed: true,
			gaps: func(*rand.Rand) time.Duration { return 320 * us },
		},
		{
			name: "500us apart", maxWait: 200 * us, warmup: 128, armed: false,
			gaps: func(*rand.Rand) time.Duration { return 500 * us },
		},
		{
			name: "greedy never arms", maxWait: 0, warmup: 0, armed: false,
			gaps: func(*rand.Rand) time.Duration { return 0 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var a arrivals
			now := time.Unix(1, 0)
			for i := 0; i < n; i++ {
				now = now.Add(tc.gaps(rng))
				a.observe(now)
				if got := a.dense(tc.maxWait); i >= tc.warmup && got != tc.armed {
					t.Fatalf("arrival %d: armed = %v, want %v on every decision (smoothed gap %v, window %v)",
						i, got, tc.armed, a.gap, tc.maxWait)
				}
			}
		})
	}
}

// TestHoldGateWithoutHistoryHolds: a first lone request — and a fresh
// shard before any — is held like the unconditional timer held it, under
// any positive window; leakcheck's coalesce target and the fusing tests
// rely on it. Greedy mode stays greedy.
func TestHoldGateWithoutHistoryHolds(t *testing.T) {
	var a arrivals
	for _, observed := range []bool{false, true} {
		if observed {
			a.observe(time.Unix(1, 0))
		}
		for _, w := range []time.Duration{time.Nanosecond, 200 * us, 5 * time.Second} {
			if !a.dense(w) {
				t.Fatalf("first arrival observed=%v: window %v not armed", observed, w)
			}
		}
		if a.dense(0) {
			t.Fatalf("first arrival observed=%v: greedy mode armed", observed)
		}
	}
}

// TestHoldGateForgetsDensityAcrossSilence: the silence before an arrival
// is a gap like any other, so a shard that was dense and then went quiet
// does not hold the request that ends the quiet on the stale verdict.
// (Shorter silences can leave the verdict dense for an arrival or two;
// gather's deadline bounds each such hold by MaxWait.) Out-of-order
// timestamps from racing admissions count as zero gaps, never negative.
func TestHoldGateForgetsDensityAcrossSilence(t *testing.T) {
	const maxWait = 200 * us
	var a arrivals
	now := time.Unix(1, 0)
	for i := 0; i < 1000; i++ {
		now = now.Add(20 * us)
		a.observe(now)
		a.observe(now.Add(-5 * us)) // stamped earlier, admitted later
	}
	if !a.dense(maxWait) || a.gap < 0 || a.gap > 20*us {
		t.Fatalf("dense phase: smoothed gap %v", a.gap)
	}
	now = now.Add(time.Second)
	a.observe(now)
	if a.dense(maxWait) {
		t.Fatalf("arrival after 1s of silence still held (smoothed gap %v)", a.gap)
	}
}

// flushCounts reads serving_flush_total by cause.
func flushCounts(reg *obs.Registry) (byCause [numFlushCauses]int64, total int64) {
	for c, name := range flushCauseNames {
		byCause[c] = reg.Counter("serving_flush_total", "cause", name).Value()
		total += byCause[c]
	}
	return byCause, total
}

// TestLoneCallerStopsPayingTheHold is the tentpole through Group.Do, read
// off the flush-cause counter instead of a clock: one closed-loop caller
// whose round trip (a backend that takes ≥ 1 ms) is longer than the
// production 200 µs MaxWait is held while the shard has no history, and
// after the warm-up never again — every batch leaves because the queue
// drained, none because the hold ran out.
func TestLoneCallerStopsPayingTheHold(t *testing.T) {
	reg := obs.NewRegistry()
	be := &fakeBackend{maxBatch: 8, delay: time.Millisecond}
	g := NewGroup([]Backend{be}, GroupConfig{Coalesce: CoalesceConfig{MaxWait: 200 * us}}, WithObserver(reg))
	defer g.Close()
	call := func(n int) {
		for i := 0; i < n; i++ {
			if r := g.Do(context.Background(), 0, i); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	call(gapSmoothing)
	warm, _ := flushCounts(reg)
	if warm[flushDeadline] == 0 {
		t.Fatal("a shard with no history never held: the first request must sit out MaxWait")
	}
	const steady = 32
	call(steady)
	after, _ := flushCounts(reg)
	if held := after[flushDeadline] - warm[flushDeadline]; held != 0 {
		t.Fatalf("%d of %d steady-state lone requests sat out the hold", held, steady)
	}
	if drained := after[flushDrained] - warm[flushDrained]; drained != steady {
		t.Fatalf("%d of %d steady-state batches flushed on an empty queue", drained, steady)
	}
}

// TestDenseCallersStillFuse: 8 closed-loop callers on a 50 µs backend keep
// the shard dense, so the hold stays armed and requests keep fusing.
func TestDenseCallersStillFuse(t *testing.T) {
	reg := obs.NewRegistry()
	be := &fakeBackend{maxBatch: 8, delay: 50 * us}
	g := NewGroup([]Backend{be}, GroupConfig{Coalesce: CoalesceConfig{MaxWait: 200 * us}}, WithObserver(reg))
	const callers, each = 8, 100
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if r := g.Do(context.Background(), 0, i); r.Err != nil {
					t.Error(r.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	g.Close()
	_, flushes := flushCounts(reg)
	if mean := float64(callers*each) / float64(flushes); mean < 3 {
		t.Fatalf("mean batch %.2f over %d flushes, want ≥ 3", mean, flushes)
	}
}

// TestFlushCausesAreCounted pins each label of serving_flush_total to the
// exit it names.
func TestFlushCausesAreCounted(t *testing.T) {
	run := func(cfg CoalesceConfig, maxBatch, requests int) [numFlushCauses]int64 {
		t.Helper()
		reg := obs.NewRegistry()
		g := NewGroup([]Backend{&fakeBackend{maxBatch: maxBatch}}, GroupConfig{Coalesce: cfg}, WithObserver(reg))
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r := g.Do(context.Background(), 0, i); r.Err != nil {
					t.Error(r.Err)
				}
			}()
		}
		wg.Wait()
		g.Close()
		counts, total := flushCounts(reg)
		if bs := reg.HistogramBuckets("serving_batch_size", nil).Count(); total != bs {
			t.Fatalf("%d flushes counted for %d executed batches", total, bs)
		}
		return counts
	}
	if c := run(CoalesceConfig{MaxWait: 30 * time.Second}, 2, 2); c != [numFlushCauses]int64{flushFull: 1} {
		t.Fatalf("two requests, cap 2, long hold: flushes %v, want one full", c)
	}
	if c := run(CoalesceConfig{}, 4, 1); c != [numFlushCauses]int64{flushDrained: 1} {
		t.Fatalf("greedy lone request: flushes %v, want one drained", c)
	}
	if c := run(CoalesceConfig{MaxWait: time.Millisecond}, 4, 1); c != [numFlushCauses]int64{flushDeadline: 1} {
		t.Fatalf("held lone request: flushes %v, want one deadline", c)
	}
}

// TestCloseFlushesHeldBatch: closing the queue under a worker holding a
// partial batch flushes it at once (cause "closed") — Close returns
// without waiting out the hold, and the admitted request is served.
func TestCloseFlushesHeldBatch(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGroup([]Backend{&fakeBackend{maxBatch: 4}}, GroupConfig{Coalesce: CoalesceConfig{MaxWait: time.Hour}}, WithObserver(reg))
	done := make(chan Response, 1)
	go func() { done <- g.Do(context.Background(), 0, "held") }()
	// enqueue stamps the arrival under the lifecycle read-lock it keeps
	// until the send is done, so once the stamp shows, Close (which takes
	// the write lock) cannot get ahead of the admission.
	a := &g.shards[0].arrivals
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * us) {
		a.mu.Lock()
		stamped := !a.last.IsZero()
		a.mu.Unlock()
		if stamped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
	}
	g.Close()
	if r := <-done; r.Err != nil || r.Value != "held" {
		t.Fatalf("held request lost in drain: %+v", r)
	}
	if c, _ := flushCounts(reg); c != [numFlushCauses]int64{flushClosed: 1} {
		t.Fatalf("flushes %v, want one closed", c)
	}
}
