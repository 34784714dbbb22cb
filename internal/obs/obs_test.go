package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricIDSortsLabels(t *testing.T) {
	a := metricID("m", []string{"tech", "dhe", "batch", "32"})
	b := metricID("m", []string{"batch", "32", "tech", "dhe"})
	if a != b {
		t.Fatalf("label order changed identity: %q vs %q", a, b)
	}
	if a != `m{batch="32",tech="dhe"}` {
		t.Fatalf("canonical form wrong: %q", a)
	}
	if metricID("m", nil) != "m" {
		t.Fatal("unlabeled metric must be the bare name")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "k", "v")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter=%d", c.Value())
	}
	if r.Counter("c", "k", "v") != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if r.Counter("c", "k", "w") == c {
		t.Fatal("different labels must return a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge=%d", g.Value())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := r.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// A value equal to a bound lands in that bound's bucket; one past it
	// lands in the next.
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {10, 0}, {11, 1}, {100, 1}, {101, 2}, {1000, 2}, {1001, 3}}
	for _, c := range cases {
		if got := h.bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%d)=%d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	_, counts := h.Buckets()
	want := []int64{2, 2, 2, 1}
	for i, n := range want {
		if counts[i] != n {
			t.Fatalf("bucket %d count=%d, want %d (all: %v)", i, counts[i], n, counts)
		}
	}
	if h.Count() != 7 || h.Max() != 1001 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 27 || b[0] != 256 {
		t.Fatalf("buckets: len=%d first=%d", len(b), b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*2 {
			t.Fatalf("bucket %d not a doubling: %d after %d", i, b[i], b[i-1])
		}
	}
	// ~17s ceiling comfortably covers a full ORAM-protected batch.
	if b[len(b)-1] < int64(10*time.Second) {
		t.Fatalf("top bucket %d too small", b[len(b)-1])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v * 1000) // 1µs .. 1ms, roughly uniform
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 250_000 || p50 > 750_000 {
		t.Fatalf("p50=%d outside plausible range for uniform 1µs..1ms", p50)
	}
	if p99 <= p50 {
		t.Fatalf("p99=%d must exceed p50=%d", p99, p50)
	}
	if p99 > h.Max() || h.Quantile(1) > h.Max() {
		t.Fatal("quantiles must be clamped to the exact max")
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("q=1 should report the max, got %d vs %d", h.Quantile(1), h.Max())
	}
	empty := NewHistogram(nil)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramSingleObservationExact(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(12345)
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Fatalf("Quantile(%v)=%d, want the single exact value", q, got)
		}
	}
	if h.Sum() != 12345 || h.Count() != 1 {
		t.Fatalf("sum=%d count=%d", h.Sum(), h.Count())
	}
}

func TestConcurrentCountersAndHistograms(t *testing.T) {
	// Run with -race: 8 goroutines share one counter, gauge and histogram.
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("depth")
			h := r.Histogram("lat")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed*1000 + int64(i))
				g.Add(-1)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*per {
		t.Fatalf("counter=%d, want %d", got, workers*per)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Fatalf("gauge=%d, want 0", got)
	}
	if got := r.Histogram("lat").Count(); got != workers*per {
		t.Fatalf("histogram count=%d, want %d", got, workers*per)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in different orders; render must be identical.
		for _, k := range []string{"z", "a", "m"} {
			r.Counter("ops", "kind", k).Add(3)
		}
		r.Gauge("depth").Set(2)
		r.Histogram("lat", "tech", "scan").Observe(500)
		return r
	}
	r1, r2 := build(), NewRegistry()
	for _, k := range []string{"m", "z", "a"} {
		r2.Counter("ops", "kind", k).Add(3)
	}
	r2.Histogram("lat", "tech", "scan").Observe(500)
	r2.Gauge("depth").Set(2)

	var b1, b2, b3 bytes.Buffer
	if err := r1.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("equal states rendered differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if err := r1.WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	var b4 bytes.Buffer
	if err := r2.WriteJSON(&b4); err != nil {
		t.Fatal(err)
	}
	if b3.String() != b4.String() {
		t.Fatal("JSON renders differ for equal states")
	}
	snap := r1.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatal("counters not sorted")
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_generate_total", "tech", "dhe").Add(9)
	r.Histogram("core_generate_ns", "tech", "dhe").Observe(1 << 20)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `counter core_generate_total{tech="dhe"} 9`) {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"histograms"`) {
		t.Fatalf("/metrics.json: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	r := NewRegistry()
	addr, srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
