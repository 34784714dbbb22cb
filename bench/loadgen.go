package main

import (
	"context"
	"hash/maphash"
	"sync"
	"syscall"
	"time"

	"secemb/internal/wire"
)

// embedder is what the load generator drives: a wire.Client in real runs,
// a fake in the harness tests.
type embedder interface {
	Embed(ctx context.Context, key uint64, ids []uint64) (*wire.Result, error)
}

// verifyEvery is the share of timed responses whose rows are compared with
// the reference (every response is checked for status, shape and size).
const verifyEvery = 64

// sample is one request as the client saw it. Times are offsets from the
// run's start.
type sample struct {
	start   time.Duration // closed loop: send time; open loop: due time
	latency time.Duration // completion − start
	lag     time.Duration // open loop: how late the generator sent it
	queue   time.Duration // server-reported queue wait
	ids     int
	bytesTx int
	bytesRx int
	shard   int
	idsHash uint64 // links the request to its fused batch in a traced run
	err     error  // nil ⇔ a correct OK response
}

func (s *sample) end() time.Duration { return s.start + s.latency }

// hashSeed is fixed per process: the traced server and the load generator
// hash id lists with the same function.
var hashSeed = maphash.MakeSeed()

func hashIDs(ids []uint64) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	var b [8]byte
	for _, id := range ids {
		for i := range b {
			b[i] = byte(id >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// load is one run of a workload's traffic against a set of connections.
type load struct {
	w      *workload
	seed   int64
	conns  []embedder
	oracle *oracle
	dur    time.Duration // warm-up included
}

// do sends one request and records it. start is the instant latency is
// measured from.
func (l *load) do(ctx context.Context, c embedder, r *request, t0, start time.Time, deep bool) sample {
	sent := time.Now()
	res, err := c.Embed(ctx, r.Key, r.IDs)
	end := time.Now()
	s := sample{
		start:   start.Sub(t0),
		latency: end.Sub(start),
		lag:     sent.Sub(start),
		ids:     len(r.IDs),
		idsHash: hashIDs(r.IDs),
		err:     l.oracle.check(r.IDs, res, err, deep),
	}
	if res != nil {
		s.queue, s.bytesTx, s.bytesRx, s.shard = res.QueueWait, res.BytesOut, res.BytesIn, res.Shard
	}
	return s
}

// run drives the workload from t0 for l.dur and returns every request it
// sent, in no particular order. It returns after the last response.
func (l *load) run(ctx context.Context, t0 time.Time) []sample {
	if l.w.InFlight > 0 {
		return l.runClosed(ctx, t0)
	}
	return l.runOpen(ctx, t0)
}

// runClosed: InFlight virtual clients, client i on connection i mod
// len(conns) and routed to shard i mod backendCount, each sending its next
// request when the previous completes.
func (l *load) runClosed(ctx context.Context, t0 time.Time) []sample {
	per := make([][]sample, l.w.InFlight)
	keys := clientKeys(l.w.InFlight, backendCount)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newStream(l.w, l.seed, i)
			c := l.conns[i%len(l.conns)]
			for n := 0; ctx.Err() == nil; n++ {
				now := time.Now()
				if now.Sub(t0) >= l.dur {
					return
				}
				r := request{Key: keys[i], IDs: st.fill()}
				per[i] = append(per[i], l.do(ctx, c, &r, t0, now, n%verifyEvery == 0))
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// sleepUntil blocks the calling thread in the kernel until t. A Go timer
// would do, except that an otherwise idle runtime rounds sub-millisecond
// waits up to a millisecond, which is twice this benchmark's mean arrival
// gap; nanosleep wakes within tens of microseconds and burns no CPU.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by the remainder
	}
}

// runOpen: one dispatcher walks the seeded schedule and starts each
// request at its due time whether or not earlier ones have completed.
// Latency counts from the due time, so a stall is charged to every
// request it delays, not only to the one that hit it.
func (l *load) runOpen(ctx context.Context, t0 time.Time) []sample {
	sched := schedule(l.w, l.seed, l.dur)
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	for i := range sched {
		r := &sched[i]
		due := t0.Add(r.Due)
		sleepUntil(due)
		if ctx.Err() != nil {
			out = out[:i]
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = l.do(ctx, l.conns[i%len(l.conns)], r, t0, due, i%verifyEvery == 0)
		}()
	}
	wg.Wait()
	return out
}
