package wire

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

const (
	testRows = 64
	testDim  = 8
)

// testStack builds a one-shard serving group over a linear-scan generator
// and a front door on a loopback port. The caller owns shutdown.
func testStack(t *testing.T, cfg ServerConfig) (*Server, string, *tensor.Matrix) {
	t.Helper()
	return testStackGroup(t, cfg, serving.GroupConfig{QueueDepth: 64})
}

// testStackGroup is testStack with the serving group's shape chosen by the
// caller (coalescing tests need a fused batch, not the greedy default).
func testStackGroup(t *testing.T, cfg ServerConfig, gc serving.GroupConfig) (*Server, string, *tensor.Matrix) {
	t.Helper()
	table := tensor.NewGaussian(testRows, testDim, 0.05, rand.New(rand.NewSource(7)))
	gen := core.MustNew(core.LinearScan, testRows, testDim, core.Options{Table: table})
	g := serving.NewGroup([]serving.Backend{backends.NewEmbedding(gen, 16)}, gc)
	cfg.Group = g
	cfg.Dim = testDim
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 16
	}
	s := NewServer(cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, addr, table
}

func TestEmbedRoundTrip(t *testing.T) {
	var key Key
	key[3] = 9
	s, addr, table := testStack(t, ServerConfig{Key: key, RequireToken: true})
	defer func() { _ = s.DrainAll(context.Background()) }()

	c := NewClient(ClientConfig{Addr: addr, Key: key, Timeout: 5 * time.Second})
	defer c.Close()
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{5, 0, 63, 17}
	res, err := c.Embed(context.Background(), 1, ids)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serving.StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	if res.Rows.Rows != len(ids) || res.Rows.Cols != testDim {
		t.Fatalf("rows %dx%d", res.Rows.Rows, res.Rows.Cols)
	}
	for i, id := range ids {
		want := table.Row(int(id))
		got := res.Rows.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d (id %d) col %d: got %v want %v", i, id, j, got[j], want[j])
			}
		}
	}
	if want := FrameLen(BucketRows(len(ids), 16), testDim); res.BytesIn != want {
		t.Fatalf("response is %dB, want padded %dB", res.BytesIn, want)
	}
}

// TestTLSRoundTrip drives the same path over real TLS (ALPN h2): the
// transport the deployment docs require for the padding guarantee to mean
// anything.
func TestTLSRoundTrip(t *testing.T) {
	srvTLS, cliTLS, err := SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[1] = 4
	s, addr, table := testStack(t, ServerConfig{Key: key, RequireToken: true, TLS: srvTLS})
	defer func() { _ = s.DrainAll(context.Background()) }()

	c := NewClient(ClientConfig{Addr: addr, Key: key, Timeout: 5 * time.Second, TLS: cliTLS})
	defer c.Close()
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{2, 7}
	res, err := c.Embed(context.Background(), 1, ids)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serving.StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	for i, id := range ids {
		want, got := table.Row(int(id)), res.Rows.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d col %d mismatch over TLS", i, j)
			}
		}
	}
	// A cleartext h2c client against the TLS listener must fail, not fall
	// back silently.
	plain := NewClient(ClientConfig{Addr: addr, Key: key, Timeout: 2 * time.Second})
	defer plain.Close()
	if _, err := plain.Embed(context.Background(), 1, ids); err == nil {
		t.Fatal("cleartext client succeeded against a TLS listener")
	}
}

// TestOutcomeHTTPInvisible pins the HTTP-layer contract of DESIGN §12.2:
// every embed outcome answers status 200 with an identical header set —
// the outcome lives only inside the padded frame, so neither the status
// line nor a conditional Retry-After distinguishes outcomes on the wire.
func TestOutcomeHTTPInvisible(t *testing.T) {
	var key, wrong Key
	key[0], wrong[0] = 1, 2
	s, addr, _ := testStack(t, ServerConfig{Key: key, RequireToken: true})
	defer func() { _ = s.DrainAll(context.Background()) }()

	post := func(k Key) *http.Response {
		t.Helper()
		frame, err := AppendRequest(nil, &Request{
			Op:    OpEmbed,
			Token: NewToken(k, time.Now().Add(time.Minute)),
			IDs:   []uint64{1, 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/embed", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	okResp := post(key)
	authResp := post(wrong)
	s.StartDrain()
	drainResp := post(key)

	for name, resp := range map[string]*http.Response{"ok": okResp, "auth": authResp, "draining": drainResp} {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s outcome answered HTTP %d, want 200 for every outcome", name, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s outcome carries Retry-After header %q — backoff hints belong inside the frame", name, ra)
		}
		if cl, want := resp.ContentLength, okResp.ContentLength; cl != want {
			t.Errorf("%s outcome Content-Length %d != success %d", name, cl, want)
		}
	}
}

// TestClientResponseReadCap: the client refuses to buffer a response
// larger than its cap instead of trusting server-controlled sizes.
func TestClientResponseReadCap(t *testing.T) {
	s, addr, _ := testStack(t, ServerConfig{})
	defer func() { _ = s.DrainAll(context.Background()) }()
	c := NewClient(ClientConfig{Addr: addr, Timeout: 5 * time.Second, MaxResponseBytes: 16})
	defer c.Close()
	_, err := c.Embed(context.Background(), 1, []uint64{1})
	if !errors.Is(err, ErrFrameSize) {
		t.Fatalf("got %v, want ErrFrameSize for an over-cap response", err)
	}
}

// TestShardCapRejected: the response frame's shard field is one byte, so
// configs whose shard indices would truncate are refused at construction.
func TestShardCapRejected(t *testing.T) {
	bes := make([]serving.Backend, 257)
	for i := range bes {
		bes[i] = &slowBackend{dim: testDim}
	}
	g := serving.NewGroup(bes, serving.GroupConfig{QueueDepth: 1})
	defer g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer accepted a 257-shard group; shard bytes would truncate")
		}
	}()
	NewServer(ServerConfig{Group: g, Dim: testDim})
}

func TestEmbedRejectsBadToken(t *testing.T) {
	var key, wrong Key
	key[0], wrong[0] = 1, 2
	s, addr, _ := testStack(t, ServerConfig{Key: key, RequireToken: true})
	defer func() { _ = s.DrainAll(context.Background()) }()

	c := NewClient(ClientConfig{Addr: addr, Key: wrong, Timeout: 5 * time.Second})
	defer c.Close()
	res, err := c.Embed(context.Background(), 1, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serving.StatusInvalidArgument || res.Flags&FlagAuthFailed == 0 {
		t.Fatalf("status %v flags %b, want invalid_argument with auth flag", res.Status, res.Flags)
	}
	// Rejections pad like successes for the same count.
	if want := FrameLen(BucketRows(2, 16), testDim); res.BytesIn != want {
		t.Fatalf("auth rejection is %dB, want padded %dB", res.BytesIn, want)
	}
}

func TestEmbedInvalidID(t *testing.T) {
	s, addr, _ := testStack(t, ServerConfig{})
	defer func() { _ = s.DrainAll(context.Background()) }()
	c := NewClient(ClientConfig{Addr: addr, Timeout: 5 * time.Second})
	defer c.Close()
	res, err := c.Embed(context.Background(), 1, []uint64{testRows + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serving.StatusInvalidArgument {
		t.Fatalf("status %v, want invalid_argument", res.Status)
	}
	if want := FrameLen(BucketRows(1, 16), testDim); res.BytesIn != want {
		t.Fatalf("error response is %dB, want padded %dB", res.BytesIn, want)
	}
}

// TestInvalidIDIsolatedFromFusedPeer: two tenants' requests fuse into one
// backend execution (MaxBatch 2 and a hold long enough that the second
// always joins the first); one carries an out-of-range id. Only the
// offender is rejected — the peer is served its rows — and the two padded
// frames are the same size, so neither the outcome nor the peer's mistake
// shows outside the frame.
func TestInvalidIDIsolatedFromFusedPeer(t *testing.T) {
	s, addr, table := testStackGroup(t, ServerConfig{}, serving.GroupConfig{
		QueueDepth: 64,
		Coalesce:   serving.CoalesceConfig{MaxBatch: 2, MaxWait: 5 * time.Second},
	})
	defer func() { _ = s.DrainAll(context.Background()) }()

	batches := [2][]uint64{{5, 17}, {3, testRows + 1}}
	var results [2]*Result
	var wg sync.WaitGroup
	for i, ids := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: addr, Timeout: 10 * time.Second})
			defer c.Close()
			res, err := c.Embed(context.Background(), 1, ids)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	good, bad := results[0], results[1]
	if good == nil || bad == nil {
		t.FailNow()
	}
	if bad.Status != serving.StatusInvalidArgument {
		t.Fatalf("offender status %v, want invalid_argument", bad.Status)
	}
	if good.Status != serving.StatusOK {
		t.Fatalf("fused peer status %v, want ok: one tenant's bad id failed another's request", good.Status)
	}
	for i, id := range batches[0] {
		if !slices.Equal(good.Rows.Row(i), table.Row(int(id))) {
			t.Fatalf("fused peer row %d (id %d) differs from the table", i, id)
		}
	}
	if good.BytesIn != bad.BytesIn {
		t.Fatalf("padded frames differ: served %dB, rejected %dB", good.BytesIn, bad.BytesIn)
	}
}

func TestEmbedOverBatchCap(t *testing.T) {
	s, addr, _ := testStack(t, ServerConfig{MaxBatch: 4})
	defer func() { _ = s.DrainAll(context.Background()) }()
	c := NewClient(ClientConfig{Addr: addr, Timeout: 5 * time.Second})
	defer c.Close()
	res, err := c.Embed(context.Background(), 1, []uint64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serving.StatusInvalidArgument {
		t.Fatalf("status %v, want invalid_argument for over-cap batch", res.Status)
	}
}

// slowBackend sleeps per execution so drain tests can hold requests
// in-flight deliberately.
type slowBackend struct {
	delay time.Duration
	dim   int
}

func (b *slowBackend) MaxBatch() int { return 1 }
func (b *slowBackend) Execute(payloads []any) ([]serving.Result, error) {
	time.Sleep(b.delay)
	out := make([]serving.Result, len(payloads))
	for i, p := range payloads {
		ids := p.([]uint64)
		out[i].Value = tensor.New(len(ids), b.dim)
	}
	return out, nil
}

// TestGracefulDrain is the drain contract under live connections (run
// with -race in CI): requests in flight when the drain starts complete
// successfully, requests arriving after it get StatusUnavailable (503),
// and the full two-stage shutdown terminates.
func TestGracefulDrain(t *testing.T) {
	g := serving.NewGroup(
		[]serving.Backend{&slowBackend{delay: 150 * time.Millisecond, dim: testDim}},
		serving.GroupConfig{QueueDepth: 64},
	)
	s := NewServer(ServerConfig{Group: g, Dim: testDim, MaxBatch: 16})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 8
	results := make([]*Result, inflight)
	errs := make([]error, inflight)
	var started, done sync.WaitGroup
	for i := range inflight {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			c := NewClient(ClientConfig{Addr: addr, Timeout: 10 * time.Second})
			defer c.Close()
			started.Done()
			results[i], errs[i] = c.Embed(context.Background(), uint64(i), []uint64{1})
		}(i)
	}
	started.Wait()
	time.Sleep(30 * time.Millisecond) // let the requests reach the queue
	s.StartDrain()

	// New work after the drain begins is refused with 503, not hung.
	late := NewClient(ClientConfig{Addr: addr, Timeout: 5 * time.Second})
	defer late.Close()
	res, err := late.Embed(context.Background(), 99, []uint64{1})
	if err != nil {
		t.Fatalf("post-drain request should get a 503 frame, not %v", err)
	}
	if res.Status != serving.StatusUnavailable || res.Flags&FlagDraining == 0 {
		t.Fatalf("post-drain status %v flags %b, want unavailable+draining", res.Status, res.Flags)
	}
	if err := late.Health(context.Background()); err == nil {
		t.Fatal("healthz must fail during drain")
	}

	// Every in-flight request still completes.
	done.Wait()
	for i := range inflight {
		if errs[i] != nil {
			t.Fatalf("in-flight request %d failed: %v", i, errs[i])
		}
		if results[i].Status != serving.StatusOK {
			t.Fatalf("in-flight request %d status %v", i, results[i].Status)
		}
	}

	// The two-stage shutdown (front door, then group) must terminate.
	finished := make(chan error, 1)
	go func() { finished <- s.DrainAll(context.Background()) }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("DrainAll: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DrainAll deadlocked")
	}

	// The drained group refuses further work without deadlocking either.
	if r := g.Do(context.Background(), 0, []uint64{1}); serving.StatusOf(r.Err) != serving.StatusUnavailable {
		t.Fatalf("closed group returned %v, want unavailable", r.Err)
	}
}

// TestConnStreamBackpressure: a single connection gets at most ConnStreams
// concurrent requests; the overflow is shed with 429 locally.
func TestConnStreamBackpressure(t *testing.T) {
	g := serving.NewGroup(
		[]serving.Backend{&slowBackend{delay: 200 * time.Millisecond, dim: testDim}},
		serving.GroupConfig{QueueDepth: 64},
	)
	s := NewServer(ServerConfig{Group: g, Dim: testDim, MaxBatch: 16, ConnStreams: 2})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.DrainAll(context.Background()) }()

	// One client = one h2c connection; its streams share the budget.
	c := NewClient(ClientConfig{Addr: addr, Timeout: 10 * time.Second})
	defer c.Close()
	const n = 8
	statuses := make([]serving.Status, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Embed(context.Background(), uint64(i), []uint64{1})
			if err == nil {
				statuses[i] = res.Status
			} else {
				statuses[i] = serving.StatusInternal
			}
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, st := range statuses {
		switch st {
		case serving.StatusOK:
			ok++
		case serving.StatusOverloaded:
			shed++
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the stream cap")
	}
	if shed == 0 {
		t.Fatal("stream cap never shed — per-connection backpressure inactive")
	}
	if ok+shed != n {
		t.Fatalf("ok=%d shed=%d of %d: unexpected statuses %v", ok, shed, n, statuses)
	}
}
