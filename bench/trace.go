package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// The traced run assembles secembd's stack in this process from the same
// public constructors (cmd/secembd buildGenerator/buildGroup/runServe at
// its defaults) and records a span around each call into serving.Backend
// and core.Generator. Nothing inside the layers is touched: spans come from
// wrappers in this file, the queue wait from the response frame, and a
// request is linked to the fused batch that served it by shard, id-list
// hash and time containment.

// tracedSeconds caps the traced run: spans are kept in memory.
const tracedSeconds = 6

// interval is a half-open stretch of time as offsets from the run's start.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent (a fused
// batch belongs to several requests and fits none of them exactly).
func selfTime(parent interval, children ...interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, edge := time.Duration(0), parent.start
	for _, c := range clipped {
		if c.end > edge {
			covered += c.end - max(c.start, edge)
			edge = c.end
		}
	}
	return parent.dur() - covered
}

// execEvent is one fused batch as the backend wrapper saw it.
type execEvent struct {
	backend  int
	exec     interval
	generate interval
	genIDs   int
	hashes   []uint64 // one per fused request, in payload order
}

// tracedBackend records a span around Execute. The group drives a backend
// from one worker goroutine, so the event list needs no lock; it is read
// after the group has closed.
type tracedBackend struct {
	inner  serving.Backend
	idx    int
	t0     time.Time
	cur    *execEvent
	events []execEvent
}

func (b *tracedBackend) MaxBatch() int { return b.inner.MaxBatch() }

func (b *tracedBackend) Execute(payloads []any) ([]serving.Result, error) {
	ev := execEvent{backend: b.idx, hashes: make([]uint64, len(payloads))}
	for i, p := range payloads {
		if ids, ok := p.([]uint64); ok {
			ev.hashes[i] = hashIDs(ids)
		}
	}
	b.cur = &ev
	ev.exec.start = time.Since(b.t0)
	res, err := b.inner.Execute(payloads)
	ev.exec.end = time.Since(b.t0)
	b.events = append(b.events, ev)
	return res, err
}

// tracedGen records a span around Generate into its backend's open event.
type tracedGen struct {
	core.Generator
	be *tracedBackend
}

func (g tracedGen) Generate(ids []uint64) (*tensor.Matrix, error) {
	start := time.Since(g.be.t0)
	m, err := g.Generator.Generate(ids)
	g.be.cur.generate = interval{start, time.Since(g.be.t0)}
	g.be.cur.genIDs = len(ids)
	return m, err
}

// buildGenerator mirrors cmd/secembd's: int8 on, metrics registry wired.
func buildGenerator(w *workload, reg *obs.Registry) (core.Generator, error) {
	opts := core.Options{Seed: serverSeed, Int8: true, Obs: reg}
	if w.Technique == "dual" {
		dheGen, err := core.New(core.DHE, w.Rows, dim, opts)
		if err != nil {
			return nil, err
		}
		return core.NewDual(dheGen, w.Threshold, opts), nil
	}
	tech, err := core.ParseTechnique(w.Technique)
	if err != nil {
		return nil, err
	}
	return core.New(tech, w.Rows, dim, opts)
}

// tracedStack is the in-process server with its span-recording wrappers.
type tracedStack struct {
	srv      *wire.Server
	addr     string
	backends []*tracedBackend
}

func newTracedStack(w *workload, t0 time.Time) (*tracedStack, error) {
	reg := obs.NewRegistry()
	tensor.Autotune()
	tensor.SetObserver(reg)
	st := &tracedStack{}
	bes := make([]serving.Backend, backendCount)
	for i := range bes {
		gen, err := buildGenerator(w, reg)
		if err != nil {
			return nil, err
		}
		tb := &tracedBackend{idx: i, t0: t0}
		tb.inner = backends.NewEmbedding(tracedGen{gen, tb}, maxBatch)
		st.backends = append(st.backends, tb)
		bes[i] = tb
	}
	group := serving.NewGroup(bes, serving.GroupConfig{
		QueueDepth: w.QueueDepth,
		Coalesce:   serving.CoalesceConfig{MaxWait: defaultMaxWait},
		ShedWait:   defaultShedWait,
	}, serving.WithObserver(reg))
	key, _ := wire.ParseKey(tokenKey)
	st.srv = wire.NewServer(wire.ServerConfig{
		Group: group, Dim: dim, MaxBatch: maxBatch, Key: key, RequireToken: true,
		ConnStreams: w.ConnStreams, Timeout: defaultTimeout, Reg: reg,
	})
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		group.Close()
		return nil, err
	}
	st.addr = addr
	return st, nil
}

// close drains the server and the group; the event lists are stable after.
func (st *tracedStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.srv.DrainAll(ctx)
}

// linked is one request joined to the batch that served it.
type linked struct {
	s  *sample
	ev *execEvent
}

// link joins each correct response to its fused batch: same shard (backend
// i serves shard i), same id-list hash, and the batch's execution inside
// the request's lifetime. Requests with equal id lists in flight together
// are interchangeable; the earliest unmatched one is taken.
func link(samples []sample, events []execEvent) []linked {
	type key struct {
		shard int
		hash  uint64
	}
	byKey := map[key][]*sample{}
	order := make([]*sample, 0, len(samples))
	for i := range samples {
		if samples[i].err == nil {
			order = append(order, &samples[i])
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].start < order[j].start })
	for _, s := range order {
		k := key{s.shard, s.idsHash}
		byKey[k] = append(byKey[k], s)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].exec.start < events[j].exec.start })
	var out []linked
	for i := range events {
		ev := &events[i]
		for _, h := range ev.hashes {
			k := key{ev.backend, h}
			for j, s := range byKey[k] {
				if s.start <= ev.exec.start && s.end() >= ev.exec.end {
					out = append(out, linked{s, ev})
					byKey[k] = append(byKey[k][:j:j], byKey[k][j+1:]...)
					break
				}
			}
		}
	}
	return out
}

// span is one line of <workload>.trace.jsonl.
type span struct {
	Trace  int            `json:"trace"`
	Span   int            `json:"span"`
	Parent int            `json:"parent"` // 0: root
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// buildSpans lays the linked requests out as span trees. A request is one
// trace: client.embed with a serving.queue child. A fused batch is one
// backends.execute span (with its core.generate child) filed under the
// first request it served and carrying the root spans of the others in
// attrs.links.
func buildSpans(ls []linked) []span {
	var out []span
	next := 0
	id := func() int { next++; return next }
	roots := map[*execEvent][]int{}
	traces := map[*execEvent]int{}
	var batches []*execEvent
	for i, l := range ls {
		root, trace := id(), i+1
		out = append(out, span{trace, root, 0, "client.embed", int64(l.s.start), int64(l.s.end()),
			map[string]any{"ids": l.s.ids, "shard": l.s.shard, "send_lag_ns": int64(l.s.lag)}})
		out = append(out, span{trace, id(), root, "serving.queue",
			int64(l.ev.exec.start - l.s.queue), int64(l.ev.exec.start), nil})
		if _, seen := traces[l.ev]; !seen {
			traces[l.ev] = trace
			batches = append(batches, l.ev)
		}
		roots[l.ev] = append(roots[l.ev], root)
	}
	for _, ev := range batches {
		exec := id()
		out = append(out, span{traces[ev], exec, roots[ev][0], "backends.execute",
			int64(ev.exec.start), int64(ev.exec.end),
			map[string]any{"backend": ev.backend, "requests": len(ev.hashes), "links": roots[ev][1:]}})
		out = append(out, span{traces[ev], id(), exec, "core.generate",
			int64(ev.generate.start), int64(ev.generate.end), map[string]any{"ids": ev.genIDs}})
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceMetrics reduces the linked requests to the trace.* numbers.
// untracedP50 is the same workload's req_p50 without tracing (0: unknown)
// and noopNet the no-op round trip net of its own queue wait, i.e. what
// codec + HTTP/2 + dispatch cost on an idle server.
func traceMetrics(ls []linked, okRequests int, untracedP50, noopNet time.Duration) []metric {
	var wireSelf, queue, embed []float64
	var sumGenerate, sumEmbed time.Duration
	batches := map[*execEvent]bool{}
	for _, l := range ls {
		whole := interval{l.s.start, l.s.end()}
		wait := interval{l.ev.exec.start - l.s.queue, l.ev.exec.start}
		wireSelf = append(wireSelf, us(selfTime(whole, wait, l.ev.exec)))
		queue = append(queue, us(l.s.queue))
		embed = append(embed, us(whole.dur()))
		sumGenerate += l.ev.generate.dur()
		sumEmbed += whole.dur()
		batches[l.ev] = true
	}
	var beSelf, generate, exec []float64
	var reqs, ids float64
	for ev := range batches {
		beSelf = append(beSelf, us(selfTime(ev.exec, ev.generate)))
		generate = append(generate, us(ev.generate.dur()))
		exec = append(exec, us(ev.exec.dur()))
		reqs += float64(len(ev.hashes))
		ids += float64(ev.genIDs)
	}
	for _, v := range [][]float64{wireSelf, queue, embed, beSelf, generate, exec} {
		sort.Float64s(v)
	}
	p50 := func(v []float64) float64 { return percentile(v, 0.5) }
	nb := float64(len(batches))
	out := []metric{
		{"trace.wire_self_p50_us", p50(wireSelf), "us"},
		{"trace.queue_p50_us", p50(queue), "us"},
		{"trace.backends_self_p50_us", p50(beSelf), "us"},
		{"trace.generate_p50_us", p50(generate), "us"},
		// Per request: the share of its lifetime during which the batch
		// that served it was inside Generate.
		{"trace.generate_share", float64(sumGenerate) / float64(sumEmbed), "ratio"},
		{"trace.reqs_per_batch_mean", reqs / nb, "count"},
		{"trace.ids_per_generate_mean", ids / nb, "count"},
		{"trace.linked_share", float64(len(ls)) / float64(okRequests), "ratio"},
		// The closure check: what is left of the median request after its
		// queue wait, its batch's execution and an idle front door's cost.
		{"trace.unattributed_share", (p50(embed) - p50(queue) - p50(exec) - us(noopNet)) / p50(embed), "ratio"},
	}
	if untracedP50 > 0 {
		// Outside 0.8–1.25 the traced numbers do not represent the
		// untraced run.
		out = append(out, metric{"trace.p50_ratio", p50(embed) / us(untracedP50), "ratio"})
	}
	return out
}

// noopNetOf reads the idle front-door cost out of the probe metrics.
func noopNetOf(probes []metric) (time.Duration, error) {
	var rtt, wait float64
	for _, m := range probes {
		switch m.Name {
		case "wire.noop_rtt_us":
			rtt = m.Value
		case "wire.noop_queue_wait_us":
			wait = m.Value
		}
	}
	if rtt == 0 {
		return 0, fmt.Errorf("the traced run needs the wire.noop_rtt_us probe")
	}
	return time.Duration((rtt - wait) * float64(time.Microsecond)), nil
}

// runTraced runs workload w against the in-process traced stack with the
// same load shape as the untraced run, writes the spans to
// bench/out/<workload>.trace.jsonl and returns the trace.* metrics.
func runTraced(ctx context.Context, c *config, w *workload, untracedP50 time.Duration, probes []metric) ([]metric, error) {
	noopNet, err := noopNetOf(probes)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err := newTracedStack(w, t0)
	if err != nil {
		return nil, err
	}
	clients := newClients(st.addr, 2)
	measure := min(c.measure(), tracedSeconds*time.Second)
	ld := &load{w: w, seed: c.seed, conns: embedders(clients), oracle: or, dur: warmUp + measure}
	start := time.Now()
	samples := ld.run(ctx, start)
	closeClients(clients)
	if err := st.close(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Events are on t0's clock, samples on start's; move the samples, and
	// keep only requests due after the warm-up.
	shift := start.Sub(t0)
	var timed []sample
	ok := 0
	for _, s := range samples {
		if s.start < warmUp {
			continue
		}
		s.start += shift
		timed = append(timed, s)
		if s.err == nil {
			ok++
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("traced run: no request succeeded")
	}
	var events []execEvent
	for _, b := range st.backends {
		events = append(events, b.events...)
	}
	ls := link(timed, events)
	if len(ls) == 0 {
		return nil, fmt.Errorf("traced run: no request could be linked to its batch")
	}
	if err := writeSpans(filepath.Join(c.outDir(), w.Name+".trace.jsonl"), buildSpans(ls)); err != nil {
		return nil, err
	}
	return traceMetrics(ls, ok, untracedP50, noopNet), nil
}
