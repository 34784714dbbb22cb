// Command secembd is the network front door for the secure embedding
// serving stack: an HTTP/2 (h2c) server speaking the internal/wire binary
// protocol over a sharded serving.Group of oblivious embedding backends.
//
// Serve mode (default) builds the configured technique — the §IV-D
// Dual-DHE hybrid by default — replicated across -backends workers in
// -shards replica groups, and serves /v1/embed with fixed-bucket response
// padding, HMAC connection tokens, per-connection backpressure, and
// load-shedding that maps serving.ErrQueueFull / draining onto the wire
// status byte with an in-frame backoff hint (the HTTP layer always
// answers 200 so outcomes are invisible outside the padded frame).
// -tls-cert/-tls-key terminate TLS on the listener; without them the
// server speaks cleartext h2c and must sit behind an encrypting tunnel —
// request frames carry the secret ids. SIGINT/SIGTERM triggers a
// two-stage graceful drain: health checks and new requests go 503 for
// -drain-grace (load balancers route away), then the listener closes,
// in-flight requests finish, and the serving group drains its queues.
//
// Soak mode (-soak) is the load generator: it holds -conns concurrent
// connections (each its own TCP connection) against -target for
// -duration, then reports p50/p99 latency, shed rate and bytes/request,
// exiting non-zero when the -max-p99 / -max-shed / -min-requests gate
// fails. With no -target it self-hosts an in-process server first — the
// CI `make soak-short` path; add -tls to self-host with an ephemeral
// self-signed certificate so the run exercises the TLS+h2 path.
//
// Usage:
//
//	secembd [-addr :9090] [-technique dual] [-rows 4096] [-dim 64] [-tls-cert c.pem -tls-key k.pem] ...
//	secembd -soak [-target host:port] [-tls [-tls-insecure]] -conns 1000 -duration 60s ...
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secemb/internal/cli"
	"secemb/internal/frontdoor"
	"secemb/internal/obs"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	// serve: the stack, then what run resolves into it or passes to it
	frontdoor.Config
	addr       string
	drainGrace time.Duration
	tokenKey   string
	tlsCert    string
	tlsKey     string

	// soak
	soak        bool
	target      string
	conns       int
	duration    time.Duration
	batch       int
	maxP99      time.Duration
	maxShed     float64
	minRequests int64
	useTLS      bool
	tlsInsecure bool
}

// newFlags defines secembd's flags on a new set, storing into c. Each
// numeric flag's bounds sit beside it; validate holds the cross-flag rules.
func newFlags(c *config) *flag.FlagSet {
	d := frontdoor.Defaults()
	fs := flag.NewFlagSet("secembd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":9090", "serve: listen address")
	fs.StringVar(&c.Technique, "technique", d.Technique, "serve: dual or a core technique key (scan, scanb, path, circuit, dhe, lookup); under -plan the static dual hybrid is superseded, so dual maps to scanb as the starting technique and the planner re-fits from there")
	cli.Bounded(fs, &c.Rows, "rows", d.Rows, 1, "serve: embedding table cardinality")
	cli.Bounded(fs, &c.Dim, "dim", d.Dim, 1, "serve: embedding dimension (the wire dim field caps it at 65535)", math.MaxUint16)
	cli.Bounded(fs, &c.Threshold, "threshold", d.Threshold, 0, "serve: dual-scheme batch threshold (≤ uses ORAM, > uses DHE)")
	cli.Bounded(fs, &c.Backends, "backends", d.Backends, 1, "serve: backend replicas (one coalescing worker each)")
	cli.Bounded(fs, &c.Shards, "shards", d.Shards, 0, "serve: replica groups (0 → one per backend)")
	cli.Bounded(fs, &c.MaxBatch, "max-batch", d.MaxBatch, 1, "serve: public per-request id cap (largest padding bucket; the wire count field caps it at 65535)", wire.MaxBatch)
	cli.Bounded(fs, &c.QueueDepth, "queue-depth", d.QueueDepth, 0, "serve: per-shard queue depth (0 → derived)")
	cli.Bounded(fs, &c.MaxWait, "max-wait", d.MaxWait, 0, "serve: longest a partial batch is held for co-batching; the hold is armed only while arrivals on the shard are dense enough to fill it (smoothed gap under two max-waits; 0 → greedy)")
	cli.Bounded(fs, &c.ShedWait, "shed-wait", d.ShedWait, 0, "serve: grace before a saturated shard sheds with 429 (0 → block)")
	cli.Bounded(fs, &c.ConnStreams, "conn-streams", d.ConnStreams, 0, "serve: per-connection concurrent stream cap (0 → default)")
	cli.Bounded(fs, &c.Timeout, "timeout", d.Timeout, 0, "serve: per-request deadline in the serving stack")
	cli.Bounded(fs, &c.drainGrace, "drain-grace", time.Second, 0, "serve: 503 period before the listener closes on SIGTERM")
	fs.StringVar(&c.tokenKey, "token-key", "", "hex HMAC key; serve: require tokens / soak: mint them (empty in serve mode → tokens optional)")
	fs.Int64Var(&c.Core.Seed, "seed", d.Core.Seed, "serve: fixes the table rows and DHE weights; ORAM randomness comes from crypto/rand / soak: id stream seed (any value)")
	fs.StringVar(&c.tlsCert, "tls-cert", "", "serve: PEM certificate file; with -tls-key, terminate TLS on the listener")
	fs.StringVar(&c.tlsKey, "tls-key", "", "serve: PEM private key file for -tls-cert")
	fs.BoolVar(&c.Core.Int8, "int8", d.Core.Int8, "serve: quantized int8 DHE decoder when the accuracy gate passes (dhe and dual techniques)")
	fs.BoolVar(&c.Plan, "plan", d.Plan, "serve: adaptive planner re-fits the technique choice online and hot-swaps tables (replaces the static dual hybrid)")
	cli.Bounded(fs, &c.PlanEvery, "plan-interval", d.PlanEvery, 0, "serve: planner re-plan period (with -plan)")
	fs.StringVar(&c.PlanFile, "plan-file", d.PlanFile, "serve: persist/reuse the planner's fitted cost model at this path (with -plan; skips the analytic-prior warmup when the recorded machine matches)")

	fs.BoolVar(&c.soak, "soak", false, "run the load generator instead of serving")
	fs.BoolVar(&c.useTLS, "tls", false, "soak: dial TLS (self-hosted runs mint an ephemeral self-signed cert)")
	fs.BoolVar(&c.tlsInsecure, "tls-insecure", false, "soak: skip certificate verification against an external -target")
	fs.StringVar(&c.target, "target", "", "soak: server address (empty → self-host an in-process server)")
	cli.Bounded(fs, &c.conns, "conns", 1000, 1, "soak: concurrent connections")
	cli.Bounded(fs, &c.duration, "duration", 60*time.Second, time.Nanosecond, "soak: run length")
	cli.Bounded(fs, &c.batch, "batch", 2, 1, "soak: ids per request")
	cli.Bounded(fs, &c.maxP99, "max-p99", 250*time.Millisecond, 0, "soak gate: fail when p99 exceeds this (0 → ungated)")
	fs.Float64Var(&c.maxShed, "max-shed", 0.05, "soak gate: fail when the shed fraction exceeds this (any value; negative → ungated)")
	cli.Bounded(fs, &c.minRequests, "min-requests", 1, 0, "soak gate: fail when fewer requests completed")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	c := &config{}
	if code, ok := cli.Parse(newFlags(c), args, stderr); !ok {
		return code
	}
	err := c.validate()
	if err == nil {
		err = resolveKey(c, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	if c.soak {
		return runSoak(c, stdout, stderr)
	}
	return runServe(c, stdout, stderr)
}

// validate holds the rules that join flags; each flag's own bounds are
// declared beside it. Too many shards for the wire's one-byte shard field
// would make the wire constructor panic, and a self-hosted soak whose
// -batch exceeds its server's -max-batch could not send a well-formed
// request; an external -target's id cap is unknown here. Rows, dim and
// technique together are checked by core.New, which returns an error.
func (c *config) validate() error {
	shards := c.Shards
	if shards == 0 {
		shards = c.Backends
	}
	switch {
	case c.Shards > c.Backends:
		return fmt.Errorf("-shards must be at most -backends (%d), got %d", c.Backends, c.Shards)
	case shards > 256:
		return fmt.Errorf("%d shards exceed the wire shard field's cap of 256; group the backends with -shards", shards)
	case c.soak && c.target == "" && c.batch > c.MaxBatch:
		// The self-hosted server would reject every request as malformed.
		return fmt.Errorf("-batch %d exceeds the self-hosted server's -max-batch %d", c.batch, c.MaxBatch)
	}
	return nil
}

// resolveKey sets the token key serve and soak share. With -token-key the server
// requires tokens and the soak mints them under it. Without one, tokens
// are not required, and a random key still backs the server so nothing
// ever verifies against a guessable zero key; it is deliberately never
// printed — long-lived secret material does not belong in stdout/journald.
func resolveKey(c *config, stdout io.Writer) (err error) {
	if c.tokenKey != "" {
		c.Key, err = wire.ParseKey(c.tokenKey)
		c.RequireToken = true
		return err
	}
	if _, err = rand.Read(c.Key[:]); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "secembd: tokens not required (pass -token-key to enforce)")
	return nil
}

// resolveServeTLS loads the listener TLS config, or explains what running
// without one means.
func resolveServeTLS(c *config, stdout io.Writer) (err error) {
	if c.tlsCert == "" && c.tlsKey == "" {
		fmt.Fprintln(stdout, "secembd: WARNING: serving cleartext h2c — request frames carry secret ids; "+
			"deploy behind an encrypting tunnel/mesh, or pass -tls-cert/-tls-key to terminate TLS here")
		return nil
	}
	if c.tlsCert == "" || c.tlsKey == "" {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	c.TLS, err = wire.LoadServerTLS(c.tlsCert, c.tlsKey)
	return err
}

func runServe(c *config, stdout, stderr io.Writer) int {
	if err := resolveServeTLS(c, stdout); err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	// The ≤100 ms kernel probe times public architecture shapes only.
	fmt.Fprintf(stdout, "secembd: kernel autotune: %+v\n", tensor.Autotune())
	reg := obs.NewRegistry()
	tensor.SetObserver(reg) // process-global: the kernel's tune and pool metrics join what this process serves
	st, err := frontdoor.Start(c.Config, c.addr, reg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	proto := "h2c"
	if c.TLS != nil {
		proto = "tls"
	}
	fmt.Fprintf(stdout, "secembd: serving %s %dx%d on %s/%s (%d backends, %d shards, max-batch %d)\n",
		st.Technique, c.Rows, c.Dim, st.Addr, proto, c.Backends, st.Group.Shards(), c.MaxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(stdout, "secembd: draining (grace %v)\n", c.drainGrace)
	if err := st.Drain(c.drainGrace, stderr); err != nil {
		fmt.Fprintln(stderr, "secembd: drain:", err)
		return 1
	}
	stats := st.Group.Stats()
	fmt.Fprintf(stdout, "secembd: drained; served=%d errors=%d shed=%d\n", stats.Served, stats.Errors, stats.Shed)
	return 0
}
