package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
)

// TestAppendResponseDirtyBuffer: a pooled buffer arrives holding an earlier,
// larger frame. Encoding into it must append the same bytes as encoding
// into nil — header, rows and an all-zero pad — for every status, bucket
// and dim, and leave what dst already held untouched.
func TestAppendResponseDirtyBuffer(t *testing.T) {
	const capRows, prefix = 64, 5
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 3, 16, 64} {
		for st := uint8(serving.StatusOK); st <= uint8(serving.StatusInternal); st++ {
			for bucket := 1; bucket <= capRows; bucket *= 2 {
				count := bucket/2 + 1
				r := &Response{Status: st, Shard: 2, Flags: FlagDraining, QueueWait: 77, RetryAfterMS: 50}
				if st == uint8(serving.StatusOK) {
					r.Rows = tensor.NewGaussian(count, dim, 1, rng)
				}
				want, err := AppendResponse(nil, r, count, capRows, dim)
				if err != nil {
					t.Fatal(err)
				}
				dirty := bytes.Repeat([]byte{0xff}, prefix+FrameLen(capRows, dim))
				got, err := AppendResponse(dirty[:prefix], r, count, capRows, dim)
				if err != nil || !bytes.Equal(got[:prefix], bytes.Repeat([]byte{0xff}, prefix)) || !bytes.Equal(got[prefix:], want) {
					t.Fatalf("status %d bucket %d dim %d: a dirty encode differs from a fresh one (err %v)", st, bucket, dim, err)
				}
			}
		}
	}
}

// TestAppendResponseWarmAllocs: encoding into a buffer already large
// enough allocates nothing.
func TestAppendResponseWarmAllocs(t *testing.T) {
	r := &Response{Rows: tensor.NewGaussian(64, 64, 1, rand.New(rand.NewSource(1)))}
	buf, err := AppendResponse(nil, r, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendResponse(buf[:0], r, 64, 64, 64) }); allocs != 0 {
		t.Fatalf("AppendResponse into a warm buffer allocates %.0f objects per call, want 0", allocs)
	}
}

// TestPooledFramesConcurrent: eight callers on one server ask for disjoint
// ids with counts that move between buckets, so the pooled buffers pass
// from one caller's frames to another's. Every caller reads only its own
// rows, and every pad is all zeros.
func TestPooledFramesConcurrent(t *testing.T) {
	const callers, perCaller, calls = 8, testRows / 8, 40
	s, addr, table := testStack(t, ServerConfig{})
	defer func() { _ = s.DrainAll(context.Background()) }()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var protos http.Protocols
			protos.SetUnencryptedHTTP2(true)
			tr := &http.Transport{Protocols: &protos}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			rng := rand.New(rand.NewSource(int64(g)))
			for range calls {
				ids := make([]uint64, 1+rng.Intn(perCaller))
				for i := range ids {
					ids[i] = uint64(g*perCaller + rng.Intn(perCaller))
				}
				if err := checkRawEmbed(hc, addr, ids, table); err != nil {
					errs <- fmt.Errorf("caller %d: %w", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkRawEmbed posts one embed request and checks the raw response frame:
// padded size, the requested rows, and a pad of zeros.
func checkRawEmbed(hc *http.Client, addr string, ids []uint64, table *tensor.Matrix) error {
	frame, err := AppendRequest(nil, &Request{Op: OpEmbed, IDs: ids})
	if err != nil {
		return err
	}
	resp, err := hc.Post("http://"+addr+"/v1/embed", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if want := FrameLen(BucketRows(len(ids), 16), testDim); len(buf) != want {
		return fmt.Errorf("%d-byte frame, want %d", len(buf), want)
	}
	r, err := ParseResponse(buf)
	if err != nil {
		return err
	}
	if serving.Status(r.Status) != serving.StatusOK || r.Rows == nil || r.Rows.Rows != len(ids) {
		return fmt.Errorf("status %d, rows %v for %d ids", r.Status, r.Rows, len(ids))
	}
	for i, id := range ids {
		want, got := table.Row(int(id)), r.Rows.Row(i)
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("row %d (id %d) col %d: got %v want %v", i, id, j, got[j], want[j])
			}
		}
	}
	if pad := buf[prefixLen+respHeaderLen+4*len(ids)*testDim:]; len(bytes.Trim(pad, "\x00")) != 0 {
		return fmt.Errorf("pad of %d bytes is not all zeros", len(pad))
	}
	return nil
}

// roundTripBudget bounds what one in-process /v1/embed round trip of 64
// rows at dim 64 may allocate, client and server together. The rows the
// client keeps and the rows the backend hands over are 16 KiB each; the
// rest is HTTP/2 and serving bookkeeping.
const roundTripBudget = 64 << 10

// TestEmbedRoundTripBytes gates the bytes one warm round trip allocates:
// frames come from the pool, each row is copied once on the server, and
// the client decodes straight into the rows it returns.
func TestEmbedRoundTripBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const rows, dim, calls = 64, 64, 200
	table := tensor.NewGaussian(rows, dim, 1, rand.New(rand.NewSource(1)))
	gen := core.MustNew(core.Lookup, rows, dim, core.Options{Table: table})
	g := serving.NewGroup([]serving.Backend{backends.NewEmbedding(gen, rows)}, serving.GroupConfig{QueueDepth: 64})
	s := NewServer(ServerConfig{Group: g, Dim: dim, MaxBatch: rows})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.DrainAll(context.Background()) }()
	c := NewClient(ClientConfig{Addr: addr, Timeout: 10 * time.Second})
	defer c.Close()

	ids := make([]uint64, rows)
	for i := range ids {
		ids[i] = uint64(i)
	}
	embed := func() {
		res, err := c.Embed(context.Background(), 1, ids)
		if err != nil || res.Status != serving.StatusOK || res.Rows.Rows != rows {
			t.Fatalf("embed: %v %+v", err, res)
		}
	}
	for range 20 { // warm the connection, the pools and the serving group
		embed()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		embed()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B and %.1f objects per round trip", perCall, float64(after.Mallocs-before.Mallocs)/calls)
	if perCall > roundTripBudget {
		t.Fatalf("a 64-row round trip allocates %d B, budget %d B", perCall, roundTripBudget)
	}
}
