package serving

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"secemb/internal/obs"
)

// fakeBackend echoes each payload back as its Result.Value, recording the
// size of every fused batch. Optional knobs wedge an execution (gate),
// inject batch-wide or per-payload errors, or return a malformed result
// count — all the behaviors the scheduler must survive.
type fakeBackend struct {
	maxBatch int
	gate     chan struct{} // when non-nil, Execute blocks until it closes
	entered  chan struct{} // when non-nil, Execute signals entry (buffered)
	execErr  error         // batch-wide failure
	perErr   func(p any) error
	badCount bool          // return one Result too few
	delay    time.Duration // when positive, Execute takes at least this long

	mu      sync.Mutex
	batches []int
}

func (b *fakeBackend) MaxBatch() int {
	if b.maxBatch < 1 {
		return 1
	}
	return b.maxBatch
}

func (b *fakeBackend) Execute(payloads []any) ([]Result, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		<-b.gate
	}
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.batches = append(b.batches, len(payloads))
	b.mu.Unlock()
	if b.execErr != nil {
		return nil, b.execErr
	}
	out := make([]Result, len(payloads))
	for i, p := range payloads {
		if b.perErr != nil {
			if err := b.perErr(p); err != nil {
				out[i].Err = err
				continue
			}
		}
		out[i].Value = p
	}
	if b.badCount {
		out = out[:len(out)-1]
	}
	return out, nil
}

func (b *fakeBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

func TestPerRequestGroupServesCorrectly(t *testing.T) {
	be := &fakeBackend{maxBatch: 1}
	g := NewGroup([]Backend{be}, GroupConfig{Shards: 1, QueueDepth: 4})
	defer g.Close()
	resp := g.Do(context.Background(), 0, "payload-7")
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Value != "payload-7" {
		t.Fatalf("Value = %v, want payload-7", resp.Value)
	}
	// A backend with cap 1 is the per-request baseline: coalescing must
	// stay disabled.
	for _, n := range be.batchSizes() {
		if n != 1 {
			t.Fatalf("per-request group fused a batch of %d", n)
		}
	}
}

func TestGroupCoalescesQueuedRequests(t *testing.T) {
	// Wedge the worker on a sacrificial request, queue a burst behind it,
	// then release: greedy gather must fuse the entire queued burst into
	// one backend execution.
	be := &fakeBackend{maxBatch: 8, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	g := NewGroup([]Backend{be}, GroupConfig{QueueDepth: 16})
	defer g.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if r := g.Do(context.Background(), 0, "wedge"); r.Err != nil {
			t.Error(r.Err)
		}
	}()
	<-be.entered // worker is inside Execute for the sacrificial request

	const burst = 4
	results := make(chan Response, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- g.Do(context.Background(), 0, i)
		}(i)
	}
	// Wait until the whole burst is queued, then release the worker.
	deadline := time.Now().Add(10 * time.Second)
	for g.shards[0].queuedApprox() < burst {
		if time.Now().After(deadline) {
			t.Fatal("burst never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(be.gate)
	wg.Wait()
	close(results)

	seen := map[any]bool{}
	for r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		seen[r.Value] = true
	}
	if len(seen) != burst {
		t.Fatalf("got %d distinct responses, want %d", len(seen), burst)
	}
	sizes := be.batchSizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != burst {
		t.Fatalf("batch sizes = %v, want [1 %d]", sizes, burst)
	}
}

// queuedApprox reports the shard's current queue length (test helper).
func (s *shard) queuedApprox() int { return len(s.queue) }

func TestMaxWaitFlushesPartialBatch(t *testing.T) {
	// A lone request with room left in the batch must not wait forever:
	// the MaxWait deadline flushes the partial batch.
	be := &fakeBackend{maxBatch: 8}
	g := NewGroup([]Backend{be}, GroupConfig{
		Coalesce: CoalesceConfig{MaxWait: 30 * time.Millisecond},
	})
	defer g.Close()
	start := time.Now()
	if r := g.Do(context.Background(), 0, "solo"); r.Err != nil {
		t.Fatal(r.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("partial batch took %v to flush", elapsed)
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batch sizes = %v, want [1]", sizes)
	}
}

func TestMaxWaitFusesRequestsInsideWindow(t *testing.T) {
	// Second request arrives well inside the wait window: the batch fills
	// and flushes immediately, far before MaxWait.
	be := &fakeBackend{maxBatch: 2}
	g := NewGroup([]Backend{be}, GroupConfig{
		Coalesce: CoalesceConfig{MaxWait: 30 * time.Second},
	})
	defer g.Close()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r := g.Do(context.Background(), 0, i); r.Err != nil {
				t.Error(r.Err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("full batch waited %v despite being full", elapsed)
	}
	total := 0
	for _, n := range be.batchSizes() {
		total += n
	}
	if total != 2 {
		t.Fatalf("served %d fused requests, want 2", total)
	}
}

func TestMemberDeadlineBoundsBatchWait(t *testing.T) {
	// A batch member's own context deadline caps the coalesce wait for the
	// whole batch: with room left for a third request, the batch must
	// still flush at the deadlined member's 150ms — answering the
	// deadline-free co-member then, not at the 30s MaxWait.
	be := &fakeBackend{maxBatch: 3}
	g := NewGroup([]Backend{be}, GroupConfig{
		QueueDepth: 8,
		Coalesce:   CoalesceConfig{MaxWait: 30 * time.Second},
	})
	defer g.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	free := make(chan Response, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.Do(ctx, 0, "deadlined")
	}()
	go func() {
		defer wg.Done()
		free <- g.Do(context.Background(), 0, "patient")
	}()

	select {
	case r := <-free:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value != "patient" {
			t.Fatalf("Value = %v", r.Value)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("deadline-free request held hostage by MaxWait")
	}
	wg.Wait()
}

func TestShardRoutingConsistentAndSpread(t *testing.T) {
	backends := make([]Backend, 4)
	for i := range backends {
		backends[i] = &fakeBackend{maxBatch: 1}
	}
	g := NewGroup(backends, GroupConfig{})
	defer g.Close()
	if g.Shards() != 4 {
		t.Fatalf("default shards = %d, want one per backend", g.Shards())
	}
	hit := map[int]bool{}
	for key := uint64(0); key < 64; key++ {
		s := g.ShardOf(key)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d) = %d out of range", key, s)
		}
		if s != g.ShardOf(key) {
			t.Fatalf("ShardOf(%d) unstable", key)
		}
		hit[s] = true
	}
	if len(hit) < 2 {
		t.Fatalf("64 keys landed on %d shard(s); routing is not spreading", len(hit))
	}
}

func TestGroupValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no backends", func() { NewGroup(nil, GroupConfig{}) })
	mustPanic("shards > backends", func() {
		NewGroup([]Backend{&fakeBackend{}}, GroupConfig{Shards: 2})
	})
	mustPanic("no backends", func() { NewGroup(nil, GroupConfig{Shards: 1}) })
}

func TestCloseDrainsAdmittedRequests(t *testing.T) {
	// Requests admitted before Close must still be served (graceful
	// drain), while requests after Close get ErrClosed.
	be := &fakeBackend{maxBatch: 4, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	g := NewGroup([]Backend{be}, GroupConfig{QueueDepth: 8})

	const n = 3
	var wg sync.WaitGroup
	results := make(chan Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- g.Do(context.Background(), 0, i)
		}(i)
		if i == 0 {
			// The first request executes alone; submitted together, the
			// coalescer may fuse the others into its batch and they never
			// show up as queued.
			<-be.entered
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.shards[0].queuedApprox() < n-1 {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	close(be.gate)
	wg.Wait()
	<-closed
	close(results)
	for r := range results {
		if r.Err != nil {
			t.Fatalf("admitted request lost in drain: %v", r.Err)
		}
	}
	g.Close() // idempotent
	if r := g.Do(context.Background(), 0, "late"); r.Err != ErrClosed {
		t.Fatalf("post-close error = %v, want ErrClosed", r.Err)
	}
}

func TestContextCancellationDoesNotHang(t *testing.T) {
	be := &fakeBackend{maxBatch: 1}
	g := NewGroup([]Backend{be}, GroupConfig{QueueDepth: 1})
	defer g.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan Response, 1)
	go func() { done <- g.Do(ctx, 0, "x") }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Do hung")
	}
}

// wedgeWithFullQueue blocks the worker inside Execute and parks one request
// in the single queue slot, returning once queue-full is a stable state.
func wedgeWithFullQueue(t *testing.T, g *Group, be *fakeBackend, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.Do(context.Background(), 0, "executing")
	}()
	<-be.entered
	go func() {
		defer wg.Done()
		g.Do(context.Background(), 0, "parked")
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.shards[0].queuedApprox() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestShedWaitArmsDegradedMode(t *testing.T) {
	// With ShedWait armed, a blocking Do against a saturated shard gives
	// up after the grace period instead of queueing unboundedly.
	be := &fakeBackend{maxBatch: 1, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	g := NewGroup([]Backend{be}, GroupConfig{
		QueueDepth: 1,
		ShedWait:   20 * time.Millisecond,
	})
	defer g.Close()
	var wg sync.WaitGroup
	wedgeWithFullQueue(t, g, be, &wg)

	done := make(chan Response, 1)
	go func() { done <- g.Do(context.Background(), 0, "degraded") }()
	select {
	case r := <-done:
		if !errors.Is(r.Err, ErrQueueFull) {
			t.Fatalf("error = %v, want ErrQueueFull", r.Err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("degraded-mode Do never shed")
	}
	if s := g.Stats(); s.Shed != 1 {
		t.Fatalf("Stats().Shed = %d, want 1", s.Shed)
	}
	close(be.gate)
	wg.Wait()
}

func TestAbandonedRequestIsCountedAndRecycled(t *testing.T) {
	// A caller that cancels while its request is queued abandons the wait;
	// the worker must notice (claim fails), count it, and recycle the task
	// instead of leaking it.
	be := &fakeBackend{maxBatch: 1, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	g := NewGroup([]Backend{be}, GroupConfig{QueueDepth: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Do(context.Background(), 0, "executing")
	}()
	<-be.entered

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Response, 1)
	go func() { done <- g.Do(ctx, 0, "will-abandon") }()
	deadline := time.Now().Add(10 * time.Second)
	for g.shards[0].queuedApprox() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	r := <-done
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", r.Err)
	}
	close(be.gate)
	wg.Wait()
	g.Close() // drain: the worker has now seen the abandoned task
	if s := g.Stats(); s.Abandoned != 1 {
		t.Fatalf("Stats().Abandoned = %d, want 1", s.Abandoned)
	}
}

func TestBackendBatchErrorReachesEveryCaller(t *testing.T) {
	wantErr := errors.New("backend down")
	be := &fakeBackend{maxBatch: 4, execErr: wantErr}
	g := NewGroup([]Backend{be}, GroupConfig{})
	defer g.Close()
	for i := 0; i < 3; i++ {
		if r := g.Do(context.Background(), 0, i); !errors.Is(r.Err, wantErr) {
			t.Fatalf("request %d error = %v, want %v", i, r.Err, wantErr)
		}
	}
	if s := g.Stats(); s.Errors != 3 || s.Served != 0 {
		t.Fatalf("stats = %+v, want 3 errors", s)
	}
}

func TestBackendResultCountMismatchIsBatchError(t *testing.T) {
	be := &fakeBackend{maxBatch: 1, badCount: true}
	g := NewGroup([]Backend{be}, GroupConfig{})
	defer g.Close()
	r := g.Do(context.Background(), 0, "x")
	if r.Err == nil {
		t.Fatal("short result slice must produce an error, not a missing response")
	}
}

func TestPerRequestErrorsStayPerRequest(t *testing.T) {
	be := &fakeBackend{maxBatch: 4, perErr: func(p any) error {
		if p == "bad" {
			return fmt.Errorf("malformed")
		}
		return nil
	}}
	g := NewGroup([]Backend{be}, GroupConfig{})
	defer g.Close()
	if r := g.Do(context.Background(), 0, "bad"); r.Err == nil {
		t.Fatal("bad payload must error")
	}
	if r := g.Do(context.Background(), 0, "good"); r.Err != nil {
		t.Fatalf("good payload after bad one failed: %v", r.Err)
	}
	if s := g.Stats(); s.Errors != 1 || s.Served != 1 {
		t.Fatalf("stats after mixed traffic: %+v", s)
	}
}

func TestConcurrentLoadAndStats(t *testing.T) {
	be1, be2 := &fakeBackend{maxBatch: 8}, &fakeBackend{maxBatch: 8}
	g := NewGroup([]Backend{be1, be2}, GroupConfig{Shards: 2})
	defer g.Close()
	const requests = 64
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			if r := g.Do(context.Background(), key, key); r.Err != nil {
				t.Error(r.Err)
			}
		}(uint64(i))
	}
	wg.Wait()
	s := g.Stats()
	if s.Served != requests {
		t.Fatalf("served %d, want %d", s.Served, requests)
	}
}

func TestMetricsPopulatedUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	be := &fakeBackend{maxBatch: 4}
	g := NewGroup([]Backend{be}, GroupConfig{}, WithObserver(reg))
	const requests = 30
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			if r := g.Do(context.Background(), key, key); r.Err != nil {
				t.Error(r.Err)
			}
		}(uint64(i))
	}
	wg.Wait()
	g.Close()

	if got := reg.Counter("serving_served_total").Value(); got != requests {
		t.Fatalf("serving_served_total = %d, want %d", got, requests)
	}
	if got := reg.Histogram("serving_coalesce_wait_ns").Count(); got != requests {
		t.Fatalf("serving_coalesce_wait_ns count = %d, want %d", got, requests)
	}
	// Every fused batch is observed once; batch sizes sum to the requests.
	bs := reg.HistogramBuckets("serving_batch_size", nil)
	if bs.Count() == 0 || bs.Count() > requests {
		t.Fatalf("serving_batch_size count = %d", bs.Count())
	}
	if lat := reg.Histogram("serving_latency_ns").Count(); lat != bs.Count() {
		t.Fatalf("latency histogram count %d != execution count %d", lat, bs.Count())
	}
	snap := reg.Snapshot()
	foundDepth, foundShard := false, false
	for _, gv := range snap.Gauges {
		switch {
		case gv.Name == "serving_queue_depth":
			foundDepth = true
			if gv.Value != 0 {
				t.Fatalf("queue depth after drain = %d", gv.Value)
			}
		case strings.HasPrefix(gv.Name, "serving_shard_depth"):
			foundShard = true
			if gv.Value != 0 {
				t.Fatalf("%s after drain = %d", gv.Name, gv.Value)
			}
		}
	}
	if !foundDepth || !foundShard {
		t.Fatal("depth gauges missing from snapshot")
	}
}

func TestStatsEmpty(t *testing.T) {
	g := NewGroup([]Backend{&fakeBackend{}}, GroupConfig{})
	defer g.Close()
	if s := g.Stats(); s != (Stats{}) {
		t.Fatalf("fresh group stats: %+v", s)
	}
}

// TestStatsReadsTheObsCounters pins Stats to the group's one ledger: a
// group without an observer still counts, and under WithObserver every
// Stats field is the serving_*_total counter /metrics reports.
func TestStatsReadsTheObsCounters(t *testing.T) {
	bad := func(p any) error {
		if p == "bad" {
			return errors.New("malformed")
		}
		return nil
	}
	private := NewGroup([]Backend{&fakeBackend{maxBatch: 4, perErr: bad}}, GroupConfig{})
	private.Do(context.Background(), 0, "good")
	private.Do(context.Background(), 0, "bad")
	private.Close()
	if s := private.Stats(); s != (Stats{Served: 1, Errors: 1}) {
		t.Fatalf("group without an observer: stats = %+v, want 1 served, 1 error", s)
	}

	reg := obs.NewRegistry()
	be := &fakeBackend{maxBatch: 1, gate: make(chan struct{}), entered: make(chan struct{}, 4), perErr: bad}
	g := NewGroup([]Backend{be}, GroupConfig{QueueDepth: 1, ShedWait: 20 * time.Millisecond}, WithObserver(reg))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Do(context.Background(), 0, "executing")
	}()
	<-be.entered
	// The abandoned request fills the one queue slot, so the next is shed.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Response, 1)
	go func() { done <- g.Do(ctx, 0, "will-abandon") }()
	deadline := time.Now().Add(10 * time.Second)
	for g.shards[0].queuedApprox() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	<-done
	if r := g.Do(context.Background(), 0, "shed"); !errors.Is(r.Err, ErrQueueFull) {
		t.Fatalf("saturated shard answered %v, want ErrQueueFull", r.Err)
	}
	close(be.gate)
	wg.Wait()
	g.Do(context.Background(), 0, "good")
	g.Do(context.Background(), 0, "bad")
	g.Close()

	s := g.Stats()
	if s != (Stats{Served: 2, Errors: 1, Shed: 1, Abandoned: 1}) {
		t.Fatalf("stats = %+v, want 2 served, 1 error, 1 shed, 1 abandoned", s)
	}
	for name, got := range map[string]int{
		"serving_served_total":    s.Served,
		"serving_errors_total":    s.Errors,
		"serving_shed_total":      s.Shed,
		"serving_abandoned_total": s.Abandoned,
	} {
		if want := reg.Counter(name).Value(); int64(got) != want {
			t.Errorf("Stats reports %d where %s = %d", got, name, want)
		}
	}
}
