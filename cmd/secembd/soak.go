package main

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"secemb/internal/frontdoor"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

// soakMaxErrorRate is the gate's bound on requests that failed outright:
// any hard error fails the run.
const soakMaxErrorRate = 0.0

// soakSampleCap bounds the per-worker latency sample (uniform reservoir),
// keeping memory constant however long the run.
const soakSampleCap = 4096

// soakReport aggregates a run.
type soakReport struct {
	conns                      int
	duration                   time.Duration
	requests, ok, shed, errors int64 // shed: 429/503; errors: transport failures + non-retryable non-OK
	bytesIn                    int64
	p50, p99, max              time.Duration
}

// perRequest is n divided by the request count (0 when there were none).
func (r *soakReport) perRequest(n int64) float64 {
	if r.requests == 0 {
		return 0
	}
	return float64(n) / float64(r.requests)
}

func (r *soakReport) String() string {
	return fmt.Sprintf(
		"soak: %d conns × %v: %d requests (%.0f rps), ok=%d shed=%d (%.2f%%) errors=%d, p50=%v p99=%v max=%v, %.0f B/resp",
		r.conns, r.duration.Round(time.Millisecond), r.requests, float64(r.requests)/r.duration.Seconds(),
		r.ok, r.shed, 100*r.perRequest(r.shed), r.errors, r.p50, r.p99, r.max, r.perRequest(r.bytesIn))
}

// checkGate applies -min-requests, -max-p99 and -max-shed to r, and fails
// a run that completed no request or any hard error; a non-nil error
// describes the first violated criterion.
func (c *config) checkGate(r *soakReport) error {
	if c.minRequests > 0 && r.requests < c.minRequests {
		return fmt.Errorf("soak gate: %d requests completed, need ≥%d", r.requests, c.minRequests)
	}
	if r.requests == 0 {
		return fmt.Errorf("soak gate: no request completed")
	}
	if c.maxP99 > 0 && r.p99 > c.maxP99 {
		return fmt.Errorf("soak gate: p99 %v exceeds %v", r.p99, c.maxP99)
	}
	if c.maxShed >= 0 && r.perRequest(r.shed) > c.maxShed {
		return fmt.Errorf("soak gate: shed rate %.2f%% exceeds %.2f%%", 100*r.perRequest(r.shed), 100*c.maxShed)
	}
	if errRate := r.perRequest(r.errors); errRate > soakMaxErrorRate {
		return fmt.Errorf("soak gate: error rate %.2f%% exceeds %.2f%% (%d errors)",
			100*errRate, 100*soakMaxErrorRate, r.errors)
	}
	return nil
}

// soakWorker is one connection's tally.
type soakWorker struct {
	requests, ok, shed, errs int64
	bytesIn                  int64
	sample                   []time.Duration
	seen                     int64
	rng                      *rand.Rand
}

func (w *soakWorker) observe(d time.Duration) {
	w.seen++
	if len(w.sample) < soakSampleCap {
		w.sample = append(w.sample, d)
		return
	}
	if i := w.rng.Int63n(w.seen); i < soakSampleCap {
		w.sample[i] = d
	}
}

// soak holds -conns concurrent connections against target for -duration,
// each worker issuing back-to-back Embed requests of -batch random ids in
// [0, -rows) with its own wire.Client (own transport, own TCP connection).
// Tokens are minted under c.Key. It returns the merged report.
func soak(c *config, target string, clientTLS *tls.Config) *soakReport {
	ctx, cancel := context.WithTimeout(context.Background(), c.duration)
	defer cancel()

	workers := make([]*soakWorker, c.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &soakWorker{rng: rand.New(rand.NewSource(c.Core.Seed + int64(i)))}
		workers[i] = w
		wg.Add(1)
		go func(i int, w *soakWorker) {
			defer wg.Done()
			client := wire.NewClient(wire.ClientConfig{Addr: target, Key: c.Key, Timeout: c.Timeout + 5*time.Second, TLS: clientTLS})
			defer client.Close()
			ids := make([]uint64, c.batch)
			shardKey := uint64(i)
			for ctx.Err() == nil {
				for j := range ids {
					ids[j] = uint64(w.rng.Intn(c.Rows))
				}
				t0 := time.Now()
				res, err := client.Embed(ctx, shardKey, ids)
				if err != nil {
					if ctx.Err() != nil {
						return // run over; an aborted in-flight call is not an error
					}
					w.requests++
					w.errs++
					continue
				}
				w.requests++
				w.bytesIn += int64(res.BytesIn)
				switch {
				case res.Status.Retryable():
					w.shed++
					if res.RetryAfter > 0 {
						select {
						case <-time.After(res.RetryAfter):
						case <-ctx.Done():
						}
					}
				case res.Status != serving.StatusOK:
					w.errs++
				default:
					w.ok++
					w.observe(time.Since(t0))
				}
			}
		}(i, w)
	}
	wg.Wait()

	rep := &soakReport{conns: c.conns, duration: time.Since(start)}
	var merged []time.Duration
	for _, w := range workers {
		rep.requests += w.requests
		rep.ok += w.ok
		rep.shed += w.shed
		rep.errors += w.errs
		rep.bytesIn += w.bytesIn
		merged = append(merged, w.sample...)
	}
	if len(merged) > 0 {
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		rep.p50 = merged[len(merged)/2]
		rep.p99 = merged[len(merged)*99/100]
		rep.max = merged[len(merged)-1]
	}
	return rep
}

// runSoak is -soak: it self-hosts the serve stack in-process when no
// -target is given, runs the load, prints the report and applies the gate.
func runSoak(c *config, stdout, stderr io.Writer) int {
	target := c.target
	var clientTLS *tls.Config
	if c.useTLS && target != "" {
		clientTLS = &tls.Config{InsecureSkipVerify: c.tlsInsecure}
	}
	var st *frontdoor.Stack
	if target == "" {
		// Self-hosted soak: spin the full serve stack in-process so the
		// run exercises the real network path end to end; with -tls that
		// includes TLS termination via an ephemeral self-signed cert.
		var err error
		if c.useTLS {
			c.TLS, clientTLS, err = wire.SelfSignedTLS()
		}
		if err == nil {
			reg := obs.NewRegistry()
			tensor.SetObserver(reg) // as in serve
			st, err = frontdoor.Start(c.Config, "127.0.0.1:0", reg, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "secembd:", err)
			return 2
		}
		target = st.Addr
		fmt.Fprintf(stdout, "secembd: self-hosted %s %dx%d on %s\n", st.Technique, c.Rows, c.Dim, target)
	}

	fmt.Fprintf(stdout, "secembd: soaking %s: %d conns × %v, batch %d\n", target, c.conns, c.duration, c.batch)
	rep := soak(c, target, clientTLS)
	if st != nil {
		t0 := time.Now()
		_ = st.Drain(0, stderr) // the load is over: a drain timeout changes no result the gate reads
		fmt.Fprintf(stdout, "secembd: drained in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintln(stdout, rep)
	if err := c.checkGate(rep); err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "secembd: soak gate passed")
	return 0
}
