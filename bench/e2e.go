package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"secemb/internal/wire"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// Run shape. A timed run is warmUp (discarded) followed by the measured
// interval. Latency is taken over blocks of blockLen consecutive requests
// (in due order), throughput and CPU over windows of windowLen, and every
// timing metric is the value of the block or window at the quiet decile:
// the 10th percentile of the blocks' latencies, the 90th of the windows'
// throughput. The machine this runs on is a few cores of a shared host whose
// neighbours only ever slow a window down, for anything between a
// millisecond and a minute; the median over windows moved with them (see
// README.md, "Steadiness"), the quiet decile asks how fast the program is
// when it is let run. A regression in the program moves every window, the
// quiet ones too; one that touches fewer than nine windows in ten shows in
// the whole-sample client.req_p99_ms instead.
const (
	warmUp      = 1500 * time.Millisecond
	windowLen   = time.Second
	blockLen    = 200 // requests per latency block: ten samples lie beyond its p95
	quietShare  = 0.10
	preVerified = 256 // verified requests sent before timing starts
	reqTimeout  = 30 * time.Second
	stopTimeout = 20 * time.Second

	// Set-up is repeated until setupBudget is spent, within these limits;
	// setup_s is the quiet decile of the repetitions.
	setupBudget  = 2 * time.Second
	setupRepsMin = 5
	setupRepsMax = 40
)

// tally counts requests against failures.
type tally struct {
	Attempted int
	Failed    int // transport error, non-OK status (shed included), wrong rows or wrong padded size
	FirstErr  error
}

func (t *tally) add(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if t.FirstErr == nil {
			t.FirstErr = err
		}
	}
}

// window is what completed in one windowLen slice of the measured interval.
type window struct {
	ok  int // correct responses
	ids int // embedding rows they delivered
}

// account sorts a run's samples into the measured interval. A request
// belongs to the interval when it was *due* in it, so a backlog that
// completes late still counts where it was caused; throughput belongs to
// the window a response *completed* in. A failed or refused request is
// attempted and failed and in no latency sample. due holds the correct
// responses in due order.
func account(samples []sample, measure time.Duration) (t tally, due []sample, wins []window) {
	wins = make([]window, int(measure/windowLen))
	for i := range samples {
		s := &samples[i]
		if s.start >= warmUp && s.start < warmUp+measure {
			t.add(s.err)
			if s.err == nil {
				due = append(due, *s)
			}
		}
		if w := int((s.end() - warmUp) / windowLen); s.err == nil && s.end() >= warmUp && w < len(wins) {
			wins[w].ok++
			wins[w].ids += s.ids
		}
	}
	sort.SliceStable(due, func(i, j int) bool { return due[i].start < due[j].start })
	return t, due, wins
}

// blockLatency cuts the due-ordered responses into blocks of blockLen and
// returns each full block's q-quantile latency in ms.
func blockLatency(due []sample, q float64) []float64 {
	var out []float64
	for ; len(due) >= blockLen; due = due[blockLen:] {
		out = append(out, percentile(sortedBy(due[:blockLen], func(s *sample) float64 { return ms(s.latency) }), q))
	}
	return out
}

// perWindow is f's value for each window.
func perWindow(wins []window, f func(i int, w *window) float64) []float64 {
	vals := make([]float64, len(wins))
	for i := range wins {
		vals[i] = f(i, &wins[i])
	}
	return vals
}

// e2eRun is the outcome of one untraced run against a spawned secembd.
type e2eRun struct {
	tally
	EndToEnd []metric
	PerLayer []metric      // what the same run shows of single layers from outside
	P50      time.Duration // whole-sample median, for the traced run's p50_ratio
}

// newClients opens the load generator's connections: one wire.Client, and
// so one TCP connection, each.
func newClients(addr string, n int) []*wire.Client {
	key, _ := wire.ParseKey(tokenKey)
	cs := make([]*wire.Client, n)
	for i := range cs {
		cs[i] = wire.NewClient(wire.ClientConfig{Addr: addr, Key: key, Timeout: reqTimeout})
	}
	return cs
}

func closeClients(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

func embedders(cs []*wire.Client) []embedder {
	out := make([]embedder, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// bringUp spawns the workload's server and times spawn → first verified OK
// Embed: the autotune probe, the ORAM build and dual's ToTable are all in
// there.
func bringUp(ctx context.Context, bin string, w *workload, or *oracle) (*server, []*wire.Client, time.Duration, error) {
	srv, err := startServer(ctx, bin, w.serverFlags())
	if err != nil {
		return nil, nil, 0, err
	}
	cs := newClients(srv.addr, 2)
	if err := srv.waitHealthy(ctx, cs[0], 60*time.Second); err != nil {
		srv.kill()
		return nil, nil, 0, err
	}
	ids := newStream(w, 0, 0).fill()
	res, err := cs[0].Embed(ctx, 0, ids)
	if err := or.check(ids, res, err, true); err != nil {
		srv.kill()
		return nil, nil, 0, fmt.Errorf("first Embed: %w", err)
	}
	return srv, cs, time.Since(srv.started), nil
}

// runE2E measures one workload against the real binary. With timeSetup,
// servers are brought up in turn until setupBudget is spent (setup_s is
// their quiet decile; all but the last are killed at once); the last one
// takes the pre-timing verification and the timed load.
func runE2E(ctx context.Context, bin string, w *workload, seed int64, measure time.Duration, timeSetup bool) (*e2eRun, error) {
	windows := int(measure / windowLen)
	if windows < 1 {
		return nil, fmt.Errorf("measured time %v is shorter than one %v window", measure, windowLen)
	}
	measure = time.Duration(windows) * windowLen
	or, err := newOracle(w)
	if err != nil {
		return nil, err
	}

	var (
		srv     *server
		clients []*wire.Client
		setups  []float64
	)
	for begun := time.Now(); ; {
		var took time.Duration
		if srv, clients, took, err = bringUp(ctx, bin, w, or); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if n := len(setups); !timeSetup || n >= setupRepsMax || n >= setupRepsMin && time.Since(begun) >= setupBudget {
			break
		}
		closeClients(clients)
		srv.kill()
	}
	defer closeClients(clients)
	defer srv.kill() // a no-op after a clean stop

	// Correctness before speed: every one of these is compared with the
	// reference rows.
	var before tally
	pre := newStream(w, seed, -1)
	for i := 0; i < preVerified && ctx.Err() == nil; i++ {
		ids := pre.fill()
		res, err := clients[i%2].Embed(ctx, uint64(i), ids)
		before.add(or.check(ids, res, err, true))
	}

	// Server CPU at every window boundary.
	t0 := time.Now()
	cpu := make([]time.Duration, windows+1)
	cpuDone := make(chan error, 1)
	go func() {
		for i := range cpu {
			select {
			case <-ctx.Done():
				cpuDone <- ctx.Err()
				return
			case <-time.After(time.Until(t0.Add(warmUp + time.Duration(i)*windowLen))):
			}
			c, err := srv.cpuTime()
			if err != nil {
				cpuDone <- err
				return
			}
			cpu[i] = c
		}
		cpuDone <- nil
	}()
	ld := &load{w: w, seed: seed, conns: embedders(clients), oracle: or, dur: warmUp + measure}
	samples := ld.run(ctx, t0)
	if err := <-cpuDone; err != nil {
		return nil, err
	}

	rss, err := srv.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	drained, err := srv.stop(stopTimeout)
	if err != nil {
		return nil, err
	}

	timed, ok, wins := account(samples, measure)
	run := &e2eRun{tally: timed}
	run.Attempted += before.Attempted
	run.Failed += before.Failed
	if run.FirstErr == nil {
		run.FirstErr = before.FirstErr
	}
	if len(ok) < blockLen {
		return nil, fmt.Errorf("%d correct responses in %v, fewer than one block of %d; first error: %v", len(ok), measure, blockLen, run.FirstErr)
	}

	// A window in which nothing completed has no CPU cost per request; it
	// sorts last and is never the quiet decile's.
	cpuPerReq := perWindow(wins, func(i int, w *window) float64 {
		if w.ok == 0 {
			return math.Inf(1)
		}
		return us(cpu[i+1]-cpu[i]) / float64(w.ok)
	})
	run.EndToEnd = []metric{
		{"req_p50_ms", quiet(blockLatency(ok, 0.50), false), "ms"},
		{"req_p95_ms", quiet(blockLatency(ok, 0.95), false), "ms"},
		{"ids_per_s", quiet(perWindow(wins, func(_ int, w *window) float64 { return float64(w.ids) / windowLen.Seconds() }), true), "ids/s"},
		{"cpu_us_per_req", quiet(cpuPerReq, false), "us"},
		{"rss_peak_mb", rss, "MiB"},
		{"ok_share", 1 - float64(run.Failed)/float64(run.Attempted), "ratio"},
		{"setup_s", quiet(setups, false), "s"},
	}

	// The same run as single layers show it from outside, over the whole
	// measured sample: tails need every sample they can get.
	clientOK := 1 + before.Attempted - before.Failed // bringUp's Embed and the verified ones
	for i := range samples {
		if samples[i].err == nil {
			clientOK++ // warm-up included: the server counted those too
		}
	}
	lat := sortedBy(ok, func(s *sample) float64 { return ms(s.latency) })
	queue := sortedBy(ok, func(s *sample) float64 { return us(s.queue) })
	lag := sortedBy(ok, func(s *sample) float64 { return us(s.lag) })
	var tx, rx float64
	for i := range ok {
		tx += float64(ok[i].bytesTx)
		rx += float64(ok[i].bytesRx)
	}
	n := float64(len(ok))
	run.P50 = time.Duration(percentile(lat, 0.50) * float64(time.Millisecond))
	run.PerLayer = []metric{
		{"client.req_p99_ms", percentile(lat, 0.99), "ms"},
		{"client.req_p999_ms", percentile(lat, 0.999), "ms"},
		{"client.samples", n, "count"},
		{"loadgen.send_lag_p95_us", percentile(lag, 0.95), "us"},
		{"serving.queue_wait_p50_us", percentile(queue, 0.50), "us"},
		{"serving.queue_wait_p95_us", percentile(queue, 0.95), "us"},
		{"wire.req_bytes_per_req", tx / n, "B"},
		{"wire.resp_bytes_per_req", rx / n, "B"},
		{"serving.served_vs_client_ok", float64(drained.served) / float64(clientOK), "ratio"},
	}
	return run, nil
}
