package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"secemb/internal/core"
	"secemb/internal/dhe"
	"secemb/internal/hashenc"
	"secemb/internal/oblivious"
	"secemb/internal/obs"
	"secemb/internal/oram"
	"secemb/internal/planner"
	"secemb/internal/profile"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// Each probe times one public function of one layer at a fixed public
// shape for probeTime, cut into probeWindows windows; the reported time is
// the median over the windows.
const (
	probeTime    = 500 * time.Millisecond
	probeWindows = 5
)

// secembd's serving defaults, which the probes and the traced run mirror
// (cmd/secembd flags -max-wait, -shed-wait, -timeout).
const (
	defaultMaxWait  = 200 * time.Microsecond
	defaultShedWait = 2 * time.Millisecond
	defaultTimeout  = 2 * time.Second
)

// Sinks keep probe results alive so the compiler cannot drop the calls.
// Pointers go in sink; slices have sinks of their own type, because boxing
// a slice allocates and would show up in the allocation counts.
var (
	sink        any
	sinkWords   []uint32
	sinkFloats  []float32
	sinkResults []serving.Result
)

// batchFor sizes an inner loop so that the clock is read about once a
// millisecond however short op is.
func batchFor(op func()) int {
	op() // first call pays lazy set-up
	start := time.Now()
	op()
	per := max(time.Since(start), time.Nanosecond)
	return min(max(int(time.Millisecond/per), 1), 1<<20)
}

// timeWindow runs op back to back for one window and returns the calls
// made and the nanoseconds each took.
func timeWindow(op func(), batch int) (calls int, ns float64) {
	t0 := time.Now()
	for time.Since(t0) < probeTime/probeWindows {
		for i := 0; i < batch; i++ {
			op()
		}
		calls += batch
	}
	return calls, float64(time.Since(t0)) / float64(calls)
}

// timeOp runs op for probeTime and returns the median nanoseconds per call
// over the windows and the mean heap allocations per call
// (runtime.MemStats.Mallocs delta ÷ calls).
func timeOp(op func()) (ns, allocs float64) {
	batch := batchFor(op)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perWindow := make([]float64, probeWindows)
	calls := 0
	for w := range perWindow {
		var n int
		n, perWindow[w] = timeWindow(op, batch)
		calls += n
	}
	runtime.ReadMemStats(&after)
	return median(perWindow), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// prober accumulates probe metrics.
type prober struct{ out []metric }

func (p *prober) ns(name string, op func()) {
	ns, _ := timeOp(op)
	p.out = append(p.out, metric{name, ns, "ns"})
}

func (p *prober) us(name string, op func()) float64 {
	ns, allocs := timeOp(op)
	p.out = append(p.out, metric{name, ns / 1e3, "us"})
	return allocs
}

func (p *prober) count(name string, v float64) {
	p.out = append(p.out, metric{name, v, "count"})
}

// probeIDs is a fixed id batch inside [0, rows).
func probeIDs(n, rows int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(rng.Intn(rows))
	}
	return ids
}

// noopBackend answers every payload with the same zero rows: what is left
// of a request is codec, HTTP/2 and dispatch.
type noopBackend struct{ rows *tensor.Matrix }

func (noopBackend) MaxBatch() int { return maxBatch }

func (b noopBackend) Execute(payloads []any) ([]serving.Result, error) {
	out := make([]serving.Result, len(payloads))
	for i := range out {
		out[i].Value = b.rows
	}
	return out, nil
}

func noopGroup(maxWait time.Duration) *serving.Group {
	bes := []serving.Backend{noopBackend{tensor.New(2, dim)}, noopBackend{tensor.New(2, dim)}}
	return serving.NewGroup(bes, serving.GroupConfig{
		Coalesce: serving.CoalesceConfig{MaxWait: maxWait},
		ShedWait: defaultShedWait,
	})
}

// allProbes is every layer's probe set, in report order.
var allProbes = []func(*prober) error{
	probeWire, probeServing, probeBackends, probeCore, probeORAM, probeKernels, probePlanner,
}

// runProbes measures the given probe sets. Probes are independent of the
// workload and of the seed: shapes and ids are fixed. Like secembd at
// start-up, the process first autotunes the matmul kernels.
func runProbes(ctx context.Context, layers []func(*prober) error) ([]metric, error) {
	tensor.Autotune()
	p := &prober{}
	for _, layer := range layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := layer(p); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func probeWire(p *prober) error {
	key, _ := wire.ParseKey(tokenKey)
	tok := wire.NewToken(key, time.Now().Add(time.Hour))
	req := &wire.Request{Op: wire.OpEmbed, Token: tok, Key: 7, IDs: probeIDs(64, 1<<20)}
	reqFrame, err := wire.AppendRequest(nil, req)
	if err != nil {
		return err
	}
	resp := &wire.Response{Rows: tensor.NewGaussian(64, dim, 1, rand.New(rand.NewSource(1)))}
	respFrame, err := wire.AppendResponse(nil, resp, 64, maxBatch, dim)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(respFrame))
	p.ns("wire.append_request_b64_ns", func() { buf, _ = wire.AppendRequest(buf[:0], req) })
	p.ns("wire.parse_request_b64_ns", func() { sink, _ = wire.ParseRequest(reqFrame, maxBatch) })
	p.ns("wire.append_response_b64_ns", func() { buf, _ = wire.AppendResponse(buf[:0], resp, 64, maxBatch, dim) })
	p.ns("wire.parse_response_b64_ns", func() { sink, _ = wire.ParseResponse(respFrame) })
	now := time.Now()
	p.ns("wire.token_verify_ns", func() { sink = tok.Verify(key, now) })

	// One client, one request at a time, through the whole front door onto
	// a backend that does nothing.
	group := noopGroup(defaultMaxWait)
	srv := wire.NewServer(wire.ServerConfig{
		Group: group, Dim: dim, MaxBatch: maxBatch, Key: key, RequireToken: true, Timeout: defaultTimeout,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.DrainAll(ctx) // a probe server with nothing in flight
	}()
	c := wire.NewClient(wire.ClientConfig{Addr: addr, Key: key, Timeout: reqTimeout})
	defer c.Close()
	ids := []uint64{1, 2}
	var queue time.Duration
	var calls int
	var embedErr error
	allocs := p.us("wire.noop_rtt_us", func() {
		res, err := c.Embed(context.Background(), 1, ids)
		if err != nil || res.Status != serving.StatusOK {
			embedErr = fmt.Errorf("no-op Embed: %v %+v", err, res)
			return
		}
		queue += res.QueueWait
		calls++
	})
	if embedErr != nil {
		return embedErr
	}
	p.count("wire.noop_allocs", allocs) // client and server share the process
	p.out = append(p.out, metric{"wire.noop_queue_wait_us", us(queue) / float64(calls), "us"})
	return nil
}

func probeServing(p *prober) error {
	ctx := context.Background()
	payload := []uint64{1, 2}
	held := noopGroup(defaultMaxWait)
	defer held.Close()
	greedy := noopGroup(0)
	defer greedy.Close()

	var failed error
	do := func(g *serving.Group) func() {
		return func() {
			if r := g.Do(ctx, 1, payload); r.Err != nil {
				failed = r.Err
			}
		}
	}
	p.count("serving.do_noop_allocs", p.us("serving.do_noop_us", do(held)))
	p.us("serving.do_noop_greedy_us", do(greedy))

	// 16 concurrent callers on the holding group: wall time per request.
	const callers = 16
	perWindow := make([]float64, probeWindows)
	errs := make([]error, callers)
	for w := range perWindow {
		var wg sync.WaitGroup
		counts := make([]int, callers)
		t0 := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < probeTime/probeWindows {
					if r := held.Do(ctx, uint64(c), payload); r.Err != nil {
						errs[c] = r.Err
					}
					counts[c]++
				}
			}()
		}
		wg.Wait()
		total := 0
		for _, n := range counts {
			total += n
		}
		perWindow[w] = us(time.Since(t0)) / float64(total)
	}
	p.out = append(p.out, metric{"serving.do_noop_c16_us", median(perWindow), "us"})
	for _, err := range errs {
		if err != nil {
			failed = err
		}
	}
	return failed
}

func probeBackends(p *prober) error {
	gen, err := core.New(core.Lookup, 4096, dim, core.Options{Seed: serverSeed})
	if err != nil {
		return err
	}
	be := backends.NewEmbedding(gen, maxBatch)
	payloads := make([]any, 16)
	for i := range payloads {
		payloads[i] = probeIDs(2, 4096)
	}
	var failed error
	allocs := p.us("backends.embedding_execute_16x2_us", func() {
		if sinkResults, err = be.Execute(payloads); err != nil {
			failed = err
		}
	})
	p.count("backends.embedding_execute_16x2_allocs", allocs)
	return failed
}

// probeGenerate times gen.Generate on a fixed batch.
func probeGenerate(p *prober, name string, gen core.Generator, batch int) (float64, error) {
	ids := probeIDs(batch, gen.Rows())
	var failed error
	allocs := p.us(name, func() {
		var err error
		if sink, err = gen.Generate(ids); err != nil {
			failed = err
		}
	})
	return allocs, failed
}

func probeCore(p *prober) error {
	type shape struct {
		name   string
		tech   core.Technique
		rows   int
		batch  int
		int8   bool
		allocs string
	}
	for _, s := range []shape{
		{"core.circuit_n4096_b2_us", core.CircuitORAM, 4096, 2, false, ""},
		{"core.circuit_n65536_b32_us", core.CircuitORAM, 65536, 32, false, "core.circuit_n65536_b32_allocs"},
		{"core.path_n4096_b2_us", core.PathORAM, 4096, 2, false, ""},
		{"core.scan_n4096_b8_us", core.LinearScan, 4096, 8, false, ""},
		{"core.scanb_n4096_b8_us", core.LinearScanBatched, 4096, 8, false, "core.scanb_n4096_b8_allocs"},
		{"core.dhe_int8_n1m_b64_us", core.DHE, 1000000, 64, true, ""},
		{"core.dhe_f32_n1m_b64_us", core.DHE, 1000000, 64, false, ""},
	} {
		gen, err := core.New(s.tech, s.rows, dim, core.Options{Seed: serverSeed, Int8: s.int8})
		if err != nil {
			return err
		}
		if s.int8 && !core.Int8Active(gen) {
			return fmt.Errorf("%s: the int8 accuracy gate rejected the decoder", s.name)
		}
		allocs, err := probeGenerate(p, s.name, gen, s.batch)
		if err != nil {
			return err
		}
		if s.allocs != "" {
			p.count(s.allocs, allocs)
		}
	}
	// The dual generator as secembd builds it for front-door and mixed-open.
	opts := core.Options{Seed: serverSeed, Int8: true}
	dheGen, err := core.New(core.DHE, 4096, dim, opts)
	if err != nil {
		return err
	}
	dual := core.NewDual(dheGen, 4, opts)
	if _, err := probeGenerate(p, "core.dual_n4096_b2_us", dual, 2); err != nil {
		return err
	}
	_, err = probeGenerate(p, "core.dual_n4096_b64_us", dual, 64)
	return err
}

func probeORAM(p *prober) error {
	cfg := func(n int) oram.Config { return oram.Config{NumBlocks: n, BlockWords: dim, Seed: serverSeed} }
	reads := func(o oram.ORAM, n int) func() {
		ids := probeIDs(256, n)
		i := 0
		return func() {
			sinkWords = o.Read(ids[i%len(ids)])
			i++
		}
	}
	small := oram.NewCircuit(cfg(4096))
	p.count("oram.circuit_read_allocs", p.us("oram.circuit_read_n4096_us", reads(small, 4096)))
	large := oram.NewCircuit(cfg(65536))
	p.us("oram.circuit_read_n65536_us", reads(large, 65536))
	p.count("oram.circuit_stash_max", float64(large.Stats().MaxStash))
	path := oram.NewPath(cfg(4096))
	p.count("oram.path_read_allocs", p.us("oram.path_read_n4096_us", reads(path, 4096)))
	return nil
}

// probeKernels covers dhe, hashenc, tensor and oblivious.
func probeKernels(p *prober) error {
	ids := probeIDs(64, 1000000)
	d := dhe.New(dhe.VariedConfig(dim, 1000000, serverSeed), rand.New(rand.NewSource(serverSeed)))
	f32 := d.InferenceClone()
	if rep := d.EnableInt8(dhe.Int8Gate{}); !rep.Enabled {
		return fmt.Errorf("dhe probe: int8 gate rejected the decoder (err %g)", rep.MaxAbsErr)
	}
	int8 := d.InferenceClone()
	p.us("dhe.generate_int8_b64_us", func() { sink = int8.Generate(ids) })
	p.us("dhe.generate_f32_b64_us", func() { sink = f32.Generate(ids) })
	p.us("dhe.encode_b64_us", func() { sink = d.EncodeBatch(ids) })

	enc := hashenc.New(1024, 0, serverSeed)
	encOut := make([]float32, 64*1024)
	p.us("hashenc.encode_k1024_b64_us", func() { sinkFloats = enc.EncodeBatchInto(ids, encOut) })

	rng := rand.New(rand.NewSource(serverSeed))
	x := tensor.NewGaussian(64, 256, 1, rng)
	w := tensor.NewGaussian(256, 256, 0.1, rng)
	dst := tensor.New(64, 256)
	qw := tensor.QuantizeMat(w)
	var qa tensor.QuantActs
	p.us("tensor.matmul_quant_256_us", func() {
		qa.Quantize(x)
		tensor.MatMulQuantInto(dst, &qa, qw, nil, 1)
	})
	p.us("tensor.matmul_f32_256_us", func() { tensor.MatMulInto(dst, x, w, 1) })

	table := tensor.NewGaussian(4096, dim, 0.02, rng)
	row := make([]float32, dim)
	p.us("oblivious.lookup_scan_n4096_d64_us", func() { oblivious.LookupScan(table.Data, 4096, dim, 1234, row) })
	return nil
}

func probePlanner(p *prober) error {
	const shards = 8
	reg := obs.NewRegistry()
	lookup := func() core.Generator {
		return core.MustNew(core.Lookup, 4096, dim, core.Options{Seed: serverSeed})
	}
	table := planner.Table{
		Name: "embed", Rows: 4096, Dim: dim, Initial: core.LinearScanBatched,
		Build: func(int, core.Technique) (core.Generator, error) { return lookup(), nil },
	}
	// A seeded cost model under which the incumbent is cheapest on every
	// shard, so each pass samples, predicts and decides but never swaps.
	var entries []profile.CostEntry
	for s := 0; s < shards; s++ {
		table.Shards = append(table.Shards, []*planner.Swappable{planner.NewSwappable(lookup())})
		for _, tech := range planner.DefaultCandidates() {
			ns := 1e6
			if tech == table.Initial {
				ns = 1e3
			}
			entries = append(entries, profile.CostEntry{
				Shard: planner.ShardLabel(table.Name, s), Tech: tech.Key(), EWMANs: ns, EWMABatch: 8,
			})
		}
	}
	pl := planner.New(planner.Config{Reg: reg})
	if err := pl.Manage(table); err != nil {
		return err
	}
	pl.SeedCostModel(profile.NewCostModel(entries))
	swapped := false
	p.us("planner.replan_8shards_us", func() {
		for _, d := range pl.ReplanNow() {
			swapped = swapped || d.Swapped
		}
	})
	if swapped {
		return fmt.Errorf("planner probe: a re-plan pass swapped a shard")
	}

	direct := lookup()
	sw := planner.NewSwappable(direct)
	ids := probeIDs(2, 4096)
	// A difference of two ~100 ns calls: alternate them window by window so
	// drift hits both, and take the median difference.
	through := func() { sink, _ = sw.Generate(ids) }
	bare := func() { sink, _ = direct.Generate(ids) }
	batch := batchFor(through)
	diffs := make([]float64, 2*probeWindows)
	for w := range diffs {
		_, t := timeWindow(through, batch)
		_, b := timeWindow(bare, batch)
		diffs[w] = t - b
	}
	p.out = append(p.out, metric{"planner.swappable_overhead_ns", median(diffs), "ns"})
	return nil
}
