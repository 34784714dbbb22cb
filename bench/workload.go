package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"secemb/internal/serving"
)

// Public shape shared by every workload. maxBatch is secembd's public
// per-request id cap and therefore the largest padding bucket; the oracle
// needs it to predict frame sizes, so it is passed explicitly.
const (
	dim      = 64
	maxBatch = 64
	// serverSeed is secembd's representation seed: the oracle rebuilds the
	// reference rows from it.
	serverSeed = 1
	// openClients is how many virtual clients (routing keys) an open-loop
	// schedule spreads its arrivals over.
	openClients = 64
	// zipfS skews ids: a few hot rows and a long tail, as in recommender
	// and token traffic.
	zipfS = 1.2
)

// batchShare is one entry of a workload's ids-per-request distribution.
type batchShare struct {
	IDs   int
	Share float64
}

// workload is one traffic mix against one secembd configuration.
type workload struct {
	Name string
	Why  string

	// Workload-defining secembd flags; everything else stays at the
	// binary's defaults so a PR that improves a default shows.
	Technique string
	Rows      int
	Threshold int // dual only
	// Admission limits (0: secembd's defaults). The open loop widens them:
	// at 2000 req/s the default 64 streams per connection turn a 64 ms host
	// stall into shed requests, and a benchmark workload must not fail
	// because the machine hiccuped. The stall still shows, as latency.
	ConnStreams int
	QueueDepth  int

	// InFlight > 0 is a closed loop of that many virtual clients, each
	// sending its next request when the previous one completes, multiplexed
	// as HTTP/2 streams over the two connections. InFlight == 0 is an open
	// loop of seeded Poisson arrivals at Rate requests per second.
	//
	// The client counts keep both cores busy without queueing work behind
	// them. A generator that runs its batch on every core (scanb, dhe)
	// gets one client: a second request would run two such batches on two
	// cores, and measured 1.3-2x the run-to-run spread on the timing metrics.
	// The sequential ORAM paths get two clients or more per backend, so a
	// backend always finds its next request queued and never sits out the
	// coalescing hold on an idle timer, whose wake-up is the least steady
	// thing a shared host has (one or two clients: req_p95_ms spread 54-80 %
	// over eight runs where four or sixteen spread 8 %).
	InFlight int
	Rate     float64
	Batch    []batchShare
}

var workloads = []workload{
	{
		Name:      "front-door",
		Why:       "2-id requests on a 4096-row dual table: wire codec, HTTP/2, token verify and serving dispatch dominate, generator work is a few percent",
		Technique: "dual", Rows: 4096, Threshold: 4,
		InFlight: 16, Batch: []batchShare{{2, 1}},
	},
	{
		Name:      "oram-large",
		Why:       "32-id requests on a 65536-row Circuit ORAM: sequential ORAM accesses do most of the work and the tree dominates memory",
		Technique: "circuit", Rows: 65536,
		InFlight: 4, Batch: []batchShare{{32, 1}},
	},
	{
		Name:      "dhe-batch",
		Why:       "one caller's 64-id requests on a 1M-row int8 DHE: hash encode and quantized decoder matmul dominate, 16 KiB padded frames stress wire encode",
		Technique: "dhe", Rows: 1000000,
		InFlight: 1, Batch: []batchShare{{64, 1}},
	},
	{
		Name:      "scan-small",
		Why:       "one caller's 8-id requests on a 4096-row batched linear scan: the only workload where the oblivious table stream does the work",
		Technique: "scanb", Rows: 4096,
		InFlight: 1, Batch: []batchShare{{8, 1}},
	},
	{
		Name:      "mixed-open",
		Why:       "open-loop Poisson arrivals at 2000 req/s with 1/4/16/64-id requests on the dual table: queue wait, coalescing and both sides of the dual threshold",
		Technique: "dual", Rows: 4096, Threshold: 4, ConnStreams: 8192, QueueDepth: 16384,
		Rate: 2000, Batch: []batchShare{{1, 0.50}, {4, 0.25}, {16, 0.15}, {64, 0.10}},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverFlags are the workload-defining secembd flags.
func (w *workload) serverFlags() []string {
	f := []string{
		"-technique", w.Technique,
		"-rows", strconv.Itoa(w.Rows),
		"-dim", strconv.Itoa(dim),
		"-max-batch", strconv.Itoa(maxBatch),
		"-seed", strconv.Itoa(serverSeed),
	}
	if w.Technique == "dual" {
		f = append(f, "-threshold", strconv.Itoa(w.Threshold))
	}
	if w.ConnStreams > 0 {
		f = append(f, "-conn-streams", strconv.Itoa(w.ConnStreams))
	}
	if w.QueueDepth > 0 {
		f = append(f, "-queue-depth", strconv.Itoa(w.QueueDepth))
	}
	return f
}

// clientKeys gives each of n closed-loop clients a routing key: the
// smallest unused key that the server's public routing hash sends to shard
// i mod shards. Consecutive integers would do for many clients, but the
// hash sends keys 0..3 to shards 1,1,0,1, and four clients split three to
// one measure the imbalance, not the server.
func clientKeys(n, shards int) []uint64 {
	keys := make([]uint64, n)
	next := make([]uint64, shards) // per shard: the first key not yet tried
	for i := range keys {
		s := i % shards
		for serving.RouteShard(next[s], shards) != s {
			next[s]++
		}
		keys[i] = next[s]
		next[s]++
	}
	return keys
}

// request is one generated Embed call.
type request struct {
	Key uint64   // routing key: the virtual client's index
	IDs []uint64 // valid until the stream's next call
	Due time.Duration
}

// stream is a deterministic request sequence: the seed is its only source
// of ids, batch sizes and (open loop) arrival times.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	ids  []uint64
}

// newStream seeds virtual client `client` of workload w. Clients of one
// run draw from unrelated generators, so the sequence each sees does not
// depend on how the others are scheduled.
func newStream(w *workload, seed int64, client int) *stream {
	rng := rand.New(rand.NewSource(int64(uint64(seed) + uint64(client+1)*0x9E3779B97F4A7C15)))
	return &stream{
		w:    w,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(w.Rows-1)),
		ids:  make([]uint64, 0, maxBatch),
	}
}

// fill draws the next request's batch size and ids.
func (s *stream) fill() []uint64 {
	n := s.w.Batch[len(s.w.Batch)-1].IDs
	u := s.rng.Float64()
	for _, b := range s.w.Batch {
		if u < b.Share {
			n = b.IDs
			break
		}
		u -= b.Share
	}
	s.ids = s.ids[:0]
	for i := 0; i < n; i++ {
		// Spread the hot ranks over the table with a multiplier coprime to
		// every row count in use.
		s.ids = append(s.ids, s.zipf.Uint64()*2654435761%uint64(s.w.Rows))
	}
	return s.ids
}

// schedule is the open loop's whole arrival plan for dur: exponential
// gaps at w.Rate, keys cycling over the virtual clients.
func schedule(w *workload, seed int64, dur time.Duration) []request {
	s := newStream(w, seed, 0)
	var out []request
	var at time.Duration
	for i := 0; ; i++ {
		at += time.Duration(s.rng.ExpFloat64() / w.Rate * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, request{
			Key: uint64(i % openClients),
			IDs: append([]uint64(nil), s.fill()...),
			Due: at,
		})
	}
}
