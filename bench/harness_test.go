package main

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"secemb/internal/serving"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// testWorkload is small enough to build its oracle in microseconds.
func testWorkload() *workload {
	return &workload{Name: "test", Technique: "scanb", Rows: 64, Rate: 1000,
		Batch: []batchShare{{1, 0.5}, {4, 0.5}}}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.50, 500},
		{1000, 0.95, 950},
		{1000, 0.99, 990},  // exactly ten beyond
		{1000, 0.999, 990}, // p99.9 of 1000 is unsupported: clamped
		{100, 0.95, 90},    // p95 of 100 has five beyond: clamped to p90
		{20000, 0.999, 19980},
		{5, 0.5, 3},
		{5, 0.99, 3}, // no tail to speak of: the median
	} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestQuietDecileIgnoresDisturbedWindows(t *testing.T) {
	// Twenty windows of a 100 ms latency; a neighbour on the host slows
	// twelve of them down by anything up to tenfold and a glitch makes
	// one read fast. The run's number is the undisturbed one.
	lat := []float64{100, 180, 1000, 100, 250, 99, 400, 130, 101, 170, 900, 100, 220, 140, 101, 300, 160, 100, 12, 150}
	if got := quiet(lat, false); got != 100 {
		t.Errorf("quiet decile of latencies = %v, want 100", got)
	}
	// Throughput is better when higher: its quiet decile is the 90th percentile.
	tput := []float64{500, 480, 120, 505, 300, 498, 502, 450, 499, 40}
	if got := quiet(tput, true); got != 502 {
		t.Errorf("quiet decile of throughputs = %v, want 502", got)
	}
	if got := median([]float64{100, 101, 99, 100, 12, 100}); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	if !math.IsNaN(quiet(nil, false)) {
		t.Error("quiet decile of no windows should be NaN")
	}
}

func TestBlockLatencyCutsTheDueOrderIntoFullBlocks(t *testing.T) {
	// Two and a half blocks: the first all 1 ms, the second 2 ms with a
	// slow sixteenth, the rest dropped.
	var due []sample
	for i := 0; i < 2*blockLen+blockLen/2; i++ {
		lat := time.Duration(1+i/blockLen) * time.Millisecond
		if i/blockLen == 1 && i%16 == 0 {
			lat = 50 * time.Millisecond
		}
		due = append(due, sample{start: time.Duration(i), latency: lat})
	}
	if got := blockLatency(due, 0.50); !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("block medians = %v, want [1 2]", got)
	}
	if got := blockLatency(due, 0.95); !reflect.DeepEqual(got, []float64{1, 50}) {
		t.Errorf("block p95s = %v, want [1 50]: a block is large enough for ten samples beyond its p95", got)
	}
	if got := blockLatency(due[:blockLen-1], 0.5); got != nil {
		t.Errorf("a partial block yielded %v", got)
	}
}

func TestSameSeedSameLoad(t *testing.T) {
	w := testWorkload()
	draw := func(seed int64, client int) [][]uint64 {
		s := newStream(w, seed, client)
		var out [][]uint64
		for i := 0; i < 200; i++ {
			out = append(out, append([]uint64(nil), s.fill()...))
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 3), draw(7, 3)) {
		t.Error("same seed and client gave different request sequences")
	}
	if reflect.DeepEqual(draw(7, 3), draw(8, 3)) || reflect.DeepEqual(draw(7, 3), draw(7, 4)) {
		t.Error("another seed or client gave the same request sequence")
	}
	a, b := schedule(w, 7, time.Second), schedule(w, 7, time.Second)
	if len(a) < 800 || !reflect.DeepEqual(a, b) {
		t.Errorf("same seed gave different schedules (%d and %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, schedule(w, 8, time.Second)) {
		t.Error("another seed gave the same schedule")
	}
	sizes := map[int]bool{}
	for i, r := range a {
		sizes[len(r.IDs)] = true
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatal("schedule is not in due order")
		}
		for _, id := range r.IDs {
			if id >= uint64(w.Rows) {
				t.Fatalf("id %d outside the table", id)
			}
		}
	}
	if !sizes[1] || !sizes[4] || len(sizes) != 2 {
		t.Errorf("batch sizes drawn: %v, want 1 and 4", sizes)
	}
}

// fakeServer answers from the oracle's own table, so its responses are
// correct unless a test breaks them.
type fakeServer struct {
	or    *oracle
	mu    sync.Mutex // one request at a time, like one busy backend
	calls int
	stall time.Duration // the first request takes this long
	reply func(n int, res *wire.Result) (*wire.Result, error)
}

func (f *fakeServer) Embed(_ context.Context, _ uint64, ids []uint64) (*wire.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls == 1 {
		time.Sleep(f.stall)
	}
	ref, _ := f.or.reference(ids)
	res := &wire.Result{
		Status:  serving.StatusOK,
		Rows:    tensor.FromSlice(len(ids), dim, ref),
		BytesIn: wire.FrameLen(wire.BucketRows(len(ids), maxBatch), dim),
	}
	if f.reply != nil {
		return f.reply(f.calls, res)
	}
	return res, nil
}

func TestOracleCatchesWrongRowAndWrongSize(t *testing.T) {
	or, err := newOracle(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{or: or}
	ids := []uint64{3, 9, 27}
	res, _ := f.Embed(context.Background(), 0, ids)
	if err := or.check(ids, res, nil, true); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	res.Rows.Data[dim+5] += 1e-3 // one wrong value in row 1
	if err := or.check(ids, res, nil, true); !errors.Is(err, errWrongRows) {
		t.Errorf("wrong row: got %v, want errWrongRows", err)
	}
	if err := or.check(ids, res, nil, false); err != nil {
		t.Errorf("a shallow check compares no rows, got %v", err)
	}
	res, _ = f.Embed(context.Background(), 0, ids)
	res.BytesIn += 4 // frame not padded to the public bucket
	if err := or.check(ids, res, nil, false); !errors.Is(err, errWrongSize) {
		t.Errorf("wrong frame size: got %v, want errWrongSize", err)
	}
	res, _ = f.Embed(context.Background(), 0, ids)
	res.Rows = tensor.FromSlice(2, dim, res.Rows.Data[:2*dim])
	if err := or.check(ids, res, nil, false); !errors.Is(err, errWrongRows) {
		t.Errorf("missing row: got %v, want errWrongRows", err)
	}
}

func TestOracleToleratesInt8OnDual(t *testing.T) {
	w := &workload{Technique: "dual", Rows: 64, Threshold: 4, Batch: []batchShare{{2, 1}}}
	or, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2}
	ref, _ := or.reference(ids)
	res := &wire.Result{Rows: tensor.FromSlice(2, dim, ref), BytesIn: wire.FrameLen(2, dim)}
	res.Rows.Data[0] += float32(or.tol) / 2
	if err := or.check(ids, res, nil, true); err != nil {
		t.Errorf("error inside the int8 gate rejected: %v", err)
	}
	res.Rows.Data[0] += float32(or.tol)
	if err := or.check(ids, res, nil, true); !errors.Is(err, errWrongRows) {
		t.Errorf("error beyond the int8 gate: got %v, want errWrongRows", err)
	}
}

func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	w := testWorkload()
	or, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 50 * time.Millisecond
	f := &fakeServer{or: or, stall: stall}
	ld := &load{w: w, seed: 1, conns: []embedder{f}, oracle: or, dur: 40 * time.Millisecond}
	samples := ld.run(context.Background(), time.Now())
	if len(samples) < 20 {
		t.Fatalf("only %d requests in 40 ms at 1000/s", len(samples))
	}
	// Every request was due before the stall ended, so each must have
	// waited for it: latency from the due time is at least what was left of
	// the stall then. A closed loop, or latency from the send time of a
	// generator that waits for replies, would show one slow request.
	first := samples[0].start
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d failed: %v", i, s.err)
		}
		if left := stall - (s.start - first); s.latency < left-time.Millisecond {
			t.Errorf("request %d due at %v took %v, want ≥ %v", i, s.start, s.latency, left)
		}
		if s.lag > 20*time.Millisecond {
			t.Errorf("request %d was sent %v late: the dispatcher waited for a reply", i, s.lag)
		}
	}
}

func TestRefusedShedAndTimedOutRequestsAreFailures(t *testing.T) {
	w := &workload{Name: "test", Technique: "scanb", Rows: 64, InFlight: 2, Batch: []batchShare{{2, 1}}}
	or, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{or: or, reply: func(n int, res *wire.Result) (*wire.Result, error) {
		switch n % 4 {
		case 1: // shed: a padded frame with a retryable status and no rows
			return &wire.Result{Status: serving.StatusOverloaded, BytesIn: res.BytesIn}, nil
		case 2: // timeout or refused connection
			return nil, context.DeadlineExceeded
		}
		return res, nil
	}}
	ld := &load{w: w, seed: 1, conns: []embedder{f}, oracle: or, dur: 30 * time.Millisecond}
	samples := ld.run(context.Background(), time.Now())
	// Move the run into the measured interval: account ignores the warm-up.
	for i := range samples {
		samples[i].start += warmUp
	}
	tl, due, wins := account(samples, time.Second)
	if tl.Attempted != len(samples) || tl.Attempted < 8 {
		t.Fatalf("attempted %d of %d samples", tl.Attempted, len(samples))
	}
	if want := f.calls / 2; tl.Failed < want-1 || tl.Failed > want+1 {
		t.Errorf("failed = %d of %d calls, want every second one", tl.Failed, f.calls)
	}
	ok := tl.Attempted - tl.Failed
	if len(due) != ok || wins[0].ok != ok || wins[0].ids != 2*ok {
		t.Errorf("the run has %d latencies, window 0 %d completions and %d rows; want %d, %d, %d: a failure is in no latency sample",
			len(due), wins[0].ok, wins[0].ids, ok, ok, 2*ok)
	}
	if tl.FirstErr == nil {
		t.Error("no first error recorded")
	}
}

func TestAccountWindowsByCompletionAndLatencyByDueTime(t *testing.T) {
	at := func(start, latency time.Duration) sample {
		return sample{start: warmUp + start, latency: latency, ids: 1}
	}
	samples := []sample{
		at(-10*time.Millisecond, 5*time.Millisecond),    // warm-up: nowhere
		at(-10*time.Millisecond, 20*time.Millisecond),   // due in warm-up, completes in window 0
		at(1900*time.Millisecond, 300*time.Millisecond), // backlog: due in window 1, completes after the end
		at(500*time.Millisecond, 600*time.Millisecond),  // due in window 0, completes in window 1
		at(2100*time.Millisecond, time.Millisecond),     // due after the end: nowhere
	}
	tl, due, wins := account(samples, 2*time.Second)
	if tl.Attempted != 2 || tl.Failed != 0 {
		t.Errorf("attempted %d, failed %d, want 2 and 0", tl.Attempted, tl.Failed)
	}
	if len(due) != 2 || ms(due[0].latency) != 600 || ms(due[1].latency) != 300 {
		t.Errorf("latencies in due order = %v, want the 600 ms and the 300 ms request", due)
	}
	if wins[0].ok != 1 || wins[1].ok != 1 {
		t.Errorf("completions per window = %d and %d, want 1 and 1", wins[0].ok, wins[1].ok)
	}
}

func TestSelfTime(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100},
		{"disjoint", iv(0, 100), []interval{iv(10, 30), iv(50, 60)}, 70},
		{"overlapping children count once", iv(0, 100), []interval{iv(10, 40), iv(30, 50)}, 60},
		{"nested child", iv(0, 100), []interval{iv(10, 50), iv(20, 30)}, 60},
		{"child sticks out of the parent", iv(20, 100), []interval{iv(0, 40), iv(90, 150)}, 50},
		{"child outside", iv(0, 100), []interval{iv(200, 300)}, 100},
	} {
		if got := selfTime(c.parent, c.children...); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFusedBatchIsLinkedToAllItsRequests(t *testing.T) {
	usec := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// Three requests fused into one batch on backend 1, two of them with
	// the same ids; one request on backend 0; one failed request.
	samples := []sample{
		{start: usec(0), latency: usec(1000), queue: usec(200), shard: 1, idsHash: 7, ids: 2},
		{start: usec(100), latency: usec(950), queue: usec(100), shard: 1, idsHash: 7, ids: 2},
		{start: usec(150), latency: usec(800), queue: usec(50), shard: 1, idsHash: 9, ids: 2},
		{start: usec(0), latency: usec(500), queue: usec(10), shard: 0, idsHash: 7, ids: 2},
		{start: usec(0), latency: usec(500), shard: 1, idsHash: 7, err: errors.New("shed")},
	}
	events := []execEvent{
		{backend: 1, exec: interval{usec(300), usec(700)}, generate: interval{usec(350), usec(650)}, genIDs: 6, hashes: []uint64{7, 7, 9}},
		{backend: 0, exec: interval{usec(100), usec(400)}, generate: interval{usec(100), usec(390)}, genIDs: 2, hashes: []uint64{7}},
		{backend: 1, exec: interval{usec(5000), usec(5100)}, hashes: []uint64{7}}, // nobody was waiting for this
	}
	ls := link(samples, events)
	if len(ls) != 4 {
		t.Fatalf("linked %d requests, want 4", len(ls))
	}
	perBatch := map[*execEvent]int{}
	for _, l := range ls {
		perBatch[l.ev]++
		if l.s.shard != l.ev.backend || l.s.err != nil {
			t.Errorf("request on shard %d (err %v) linked to backend %d", l.s.shard, l.s.err, l.ev.backend)
		}
	}
	if len(perBatch) != 2 {
		t.Fatalf("requests linked to %d batches, want 2", len(perBatch))
	}

	got := map[string]float64{}
	for _, m := range traceMetrics(ls, 4, 0, usec(100)) {
		got[m.Name] = m.Value
	}
	// Request 0: 1000 µs minus queue [100,300) and execute [300,700) = 400.
	// Request 1: 950 − 100 − 400 = 450. Request 2: 800 − 50 − 400 = 350.
	// Request 3: 500 − 10 − 300 = 190. Median (nearest rank) of the four.
	for name, want := range map[string]float64{
		"trace.wire_self_p50_us":      350,
		"trace.queue_p50_us":          50,
		"trace.backends_self_p50_us":  10, // {100, 10}
		"trace.generate_p50_us":       290,
		"trace.reqs_per_batch_mean":   2,
		"trace.ids_per_generate_mean": 4,
		"trace.linked_share":          1,
		"trace.generate_share":        (3*300 + 290) / (1000.0 + 950 + 800 + 500),
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	spans := buildSpans(ls)
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Name == "backends.execute" && s.Attrs["requests"] == 3 {
			if links := s.Attrs["links"].([]int); len(links) != 2 || s.Parent == 0 {
				t.Errorf("fused batch span has parent %d and links %v, want one parent and two links", s.Parent, links)
			}
		}
	}
	want := map[string]int{"client.embed": 4, "serving.queue": 4, "backends.execute": 2, "core.generate": 2}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans by name = %v, want %v", names, want)
	}
}
