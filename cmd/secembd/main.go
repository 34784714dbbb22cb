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
	"context"
	"crypto/rand"
	"crypto/tls"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/planner"
	"secemb/internal/profile"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/tensor"
	"secemb/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	// serve
	addr       string
	technique  string
	rows, dim  int
	threshold  int
	nBackends  int
	shards     int
	maxBatch   int
	queueDepth int
	maxWait    time.Duration
	shedWait   time.Duration
	connStr    int
	timeout    time.Duration
	drainGrace time.Duration
	tokenKey   string
	seed       int64
	tlsCert    string
	tlsKey     string
	autotune   string
	int8       bool
	plan       bool
	planEvery  time.Duration
	planFile   string

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

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("secembd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":9090", "serve: listen address")
	fs.StringVar(&c.technique, "technique", "dual", "serve: dual or a core technique key (scan, scanb, path, circuit, dhe, lookup); under -plan the static dual hybrid is superseded, so dual maps to scanb as the starting technique and the planner re-fits from there")
	fs.IntVar(&c.rows, "rows", 4096, "serve: embedding table cardinality")
	fs.IntVar(&c.dim, "dim", 64, "serve: embedding dimension")
	fs.IntVar(&c.threshold, "threshold", 4, "serve: dual-scheme batch threshold (≤ uses ORAM, > uses DHE)")
	fs.IntVar(&c.nBackends, "backends", 4, "serve: backend replicas (one coalescing worker each)")
	fs.IntVar(&c.shards, "shards", 0, "serve: replica groups (0 → one per backend)")
	fs.IntVar(&c.maxBatch, "max-batch", 64, "serve: public per-request id cap (largest padding bucket)")
	fs.IntVar(&c.queueDepth, "queue-depth", 0, "serve: per-shard queue depth (0 → derived)")
	fs.DurationVar(&c.maxWait, "max-wait", 200*time.Microsecond, "serve: longest a partial batch is held for co-batching; the hold is armed only while arrivals on the shard are dense enough to fill it (smoothed gap under two max-waits; 0 → greedy)")
	fs.DurationVar(&c.shedWait, "shed-wait", 2*time.Millisecond, "serve: grace before a saturated shard sheds with 429 (0 → block)")
	fs.IntVar(&c.connStr, "conn-streams", 0, "serve: per-connection concurrent stream cap (0 → default)")
	fs.DurationVar(&c.timeout, "timeout", 2*time.Second, "serve: per-request deadline in the serving stack")
	fs.DurationVar(&c.drainGrace, "drain-grace", time.Second, "serve: 503 period before the listener closes on SIGTERM")
	fs.StringVar(&c.tokenKey, "token-key", "", "hex HMAC key; serve: require tokens / soak: mint them (empty in serve mode → tokens optional)")
	fs.Int64Var(&c.seed, "seed", 1, "serve: representation seed / soak: id stream seed")
	fs.StringVar(&c.tlsCert, "tls-cert", "", "serve: PEM certificate file; with -tls-key, terminate TLS on the listener")
	fs.StringVar(&c.tlsKey, "tls-key", "", "serve: PEM private key file for -tls-cert")
	fs.StringVar(&c.autotune, "autotune", "on", "serve: probe matmul kernel configs at startup (on/off)")
	fs.BoolVar(&c.int8, "int8", true, "serve: quantized int8 DHE decoder when the accuracy gate passes (dhe and dual techniques)")
	fs.BoolVar(&c.plan, "plan", false, "serve: adaptive planner re-fits the technique choice online and hot-swaps tables (replaces the static dual hybrid)")
	fs.DurationVar(&c.planEvery, "plan-interval", 10*time.Second, "serve: planner re-plan period (with -plan)")
	fs.StringVar(&c.planFile, "plan-file", "", "serve: persist/reuse the planner's fitted cost model at this path (with -plan; skips the analytic-prior warmup when the recorded machine matches)")

	fs.BoolVar(&c.soak, "soak", false, "run the load generator instead of serving")
	fs.BoolVar(&c.useTLS, "tls", false, "soak: dial TLS (self-hosted runs mint an ephemeral self-signed cert)")
	fs.BoolVar(&c.tlsInsecure, "tls-insecure", false, "soak: skip certificate verification against an external -target")
	fs.StringVar(&c.target, "target", "", "soak: server address (empty → self-host an in-process server)")
	fs.IntVar(&c.conns, "conns", 1000, "soak: concurrent connections")
	fs.DurationVar(&c.duration, "duration", 60*time.Second, "soak: run length")
	fs.IntVar(&c.batch, "batch", 2, "soak: ids per request")
	fs.DurationVar(&c.maxP99, "max-p99", 250*time.Millisecond, "soak gate: fail when p99 exceeds this (0 → ungated)")
	fs.Float64Var(&c.maxShed, "max-shed", 0.05, "soak gate: fail when the shed fraction exceeds this (negative → ungated)")
	fs.Int64Var(&c.minRequests, "min-requests", 1, "soak gate: fail when fewer requests completed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	if c.soak {
		return runSoak(c, stdout, stderr)
	}
	return runServe(c, stdout, stderr)
}

// validate rejects the flag values the serving and wire constructors treat
// as programmer errors (they panic), a malformed -autotune, negative
// durations and depths (which the stack would silently read as "off" or
// "default"), and a soak that cannot send a well-formed request, so an
// operator typo is a usage error. An external -target's id cap is unknown
// here, so only a self-hosted soak's -batch is checked against -max-batch.
// Rows, dim and technique are checked by core.New, which returns an error.
func (c *config) validate() error {
	shards := c.shards
	if shards == 0 {
		shards = c.nBackends
	}
	switch {
	case c.nBackends < 1:
		return fmt.Errorf("-backends must be at least 1, got %d", c.nBackends)
	case c.shards < 0 || c.shards > c.nBackends:
		return fmt.Errorf("-shards must be between 0 and -backends (%d), got %d", c.nBackends, c.shards)
	case shards > 256:
		return fmt.Errorf("%d shards exceed the wire shard field's cap of 256; group the backends with -shards", shards)
	case c.maxBatch < 1:
		return fmt.Errorf("-max-batch must be at least 1, got %d", c.maxBatch)
	case c.autotune != "on" && c.autotune != "off":
		return fmt.Errorf("-autotune must be on or off, got %q", c.autotune)
	case c.soak && (c.conns < 1 || c.duration <= 0 || c.rows < 1):
		return fmt.Errorf("-soak needs -conns ≥1, -duration >0 and -rows ≥1")
	case c.soak && c.batch < 1:
		return fmt.Errorf("-batch must be at least 1, got %d", c.batch)
	case c.soak && c.target == "" && c.batch > c.maxBatch:
		// The self-hosted server would reject every request as malformed.
		return fmt.Errorf("-batch %d exceeds the self-hosted server's -max-batch %d", c.batch, c.maxBatch)
	}
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"-max-wait", c.maxWait < 0},
		{"-shed-wait", c.shedWait < 0},
		{"-timeout", c.timeout < 0},
		{"-drain-grace", c.drainGrace < 0},
		{"-queue-depth", c.queueDepth < 0},
		{"-conn-streams", c.connStr < 0},
	} {
		if f.neg {
			return fmt.Errorf("%s must not be negative", f.name)
		}
	}
	return nil
}

// planTable names the single managed table secembd serves.
const planTable = "embed"

// buildGroup constructs the replicated serving stack for the configured
// technique. Backends are stateful, so every replica gets its own
// generator (same seed → same representation values). With -plan each
// generator sits behind a planner.Swappable, grouped per serving shard
// (the planner's unit of decision-making), and the returned planner (nil
// otherwise, already started) re-fits each shard's technique online;
// callers own its Stop.
func buildGroup(c *config, reg *obs.Registry, stdout io.Writer) (*serving.Group, *planner.Planner, error) {
	initial, err := planInitial(c, stdout)
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{Seed: c.seed, Int8: c.int8, Obs: reg}
	bes := make([]serving.Backend, c.nBackends)
	for i := range bes {
		gen, err := core.NewByKey(c.technique, c.rows, c.dim, c.threshold, opts)
		if err != nil {
			return nil, nil, err
		}
		if c.plan {
			bes[i] = backends.NewEmbedding(planner.NewSwappable(gen), c.maxBatch)
		} else {
			bes[i] = backends.NewEmbedding(gen, c.maxBatch)
		}
	}
	group := serving.NewGroup(bes, serving.GroupConfig{
		Shards:     c.shards,
		QueueDepth: c.queueDepth,
		Coalesce:   serving.CoalesceConfig{MaxWait: c.maxWait},
		ShedWait:   c.shedWait,
	}, serving.WithObserver(reg))
	if !c.plan {
		return group, nil, nil
	}
	// Mirror the group's shard→replica assignment into the planner's
	// per-shard plans: ShardBackends is the authoritative map, so each
	// shard's Swappables are recovered from the backends it actually owns.
	shardSws := make([][]*planner.Swappable, group.Shards())
	for si := range shardSws {
		for _, be := range group.ShardBackends(si) {
			sw, ok := be.(*backends.Embedding).Generator().(*planner.Swappable)
			if !ok {
				group.Close()
				return nil, nil, fmt.Errorf("shard %d backend is not swappable", si)
			}
			shardSws[si] = append(shardSws[si], sw)
		}
	}
	pl := planner.New(planner.Config{Interval: c.planEvery, Reg: reg})
	if err := pl.Manage(planner.Table{
		Name: planTable, Rows: c.rows, Dim: c.dim, Initial: initial,
		Build: func(_ int, tech core.Technique) (core.Generator, error) {
			return core.New(tech, c.rows, c.dim, opts)
		},
		Shards: shardSws,
	}); err != nil {
		group.Close()
		return nil, nil, err
	}
	if c.planFile != "" {
		m, installed, err := profile.InstallCostModelFile(c.planFile, reg)
		if err != nil {
			group.Close()
			return nil, nil, fmt.Errorf("-plan-file: %v", err)
		}
		if installed {
			pl.SeedCostModel(m)
			fmt.Fprintf(stdout, "secembd: planner cost model loaded from %s (%d streams) — skipping analytic-prior warmup\n",
				c.planFile, len(m.Entries))
		}
	}
	pl.Start()
	return group, pl, nil
}

// planInitial resolves the technique the planner starts every shard on.
// "dual" (the static §IV-D hybrid, and the -technique default) is what
// -plan supersedes, so under -plan it maps to the batched scan and the
// first re-plan window takes it from there; any concrete technique key is
// honored as the starting point. The remap is announced on stdout so an
// operator reading the startup log knows why the serving line says scanb.
func planInitial(c *config, stdout io.Writer) (core.Technique, error) {
	if !c.plan {
		return 0, nil
	}
	if c.technique == "dual" {
		c.technique = core.LinearScanBatched.Key()
		fmt.Fprintf(stdout, "secembd: -plan supersedes the static dual hybrid: -technique dual remapped to %s as the starting technique; the planner re-fits per shard from there\n",
			c.technique)
	}
	return core.ParseTechnique(c.technique)
}

func resolveKey(c *config, stdout io.Writer) (wire.Key, bool, error) {
	if c.tokenKey != "" {
		k, err := wire.ParseKey(c.tokenKey)
		return k, true, err
	}
	// No operator key → tokens are not required. A random key still backs
	// the server so nothing ever verifies against a guessable zero key; it
	// is deliberately never printed — long-lived secret material does not
	// belong in stdout/journald.
	var k wire.Key
	if _, err := rand.Read(k[:]); err != nil {
		return k, false, err
	}
	fmt.Fprintln(stdout, "secembd: tokens not required (pass -token-key to enforce)")
	return k, false, nil
}

// resolveServeTLS loads the listener TLS config, or explains what running
// without one means.
func resolveServeTLS(c *config, stdout io.Writer) (*tls.Config, error) {
	if c.tlsCert == "" && c.tlsKey == "" {
		fmt.Fprintln(stdout, "secembd: WARNING: serving cleartext h2c — request frames carry secret ids; "+
			"deploy behind an encrypting tunnel/mesh, or pass -tls-cert/-tls-key to terminate TLS here")
		return nil, nil
	}
	if c.tlsCert == "" || c.tlsKey == "" {
		return nil, fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	return wire.LoadServerTLS(c.tlsCert, c.tlsKey)
}

// startServer assembles the front door both modes run — serving group
// (planner-managed under -plan) and wire server, all publishing into reg —
// and listens on listen. sc carries what differs per mode (Key,
// RequireToken, TLS); the rest comes from c. It returns the bound address,
// the group (for its stats) and the drain: stop the planner (persisting
// -plan-file), answer 503 for grace, close the listener, finish in-flight
// requests and drain the group's queues.
func startServer(c *config, reg *obs.Registry, listen string, sc wire.ServerConfig,
	stdout, stderr io.Writer) (string, *serving.Group, func(grace time.Duration) error, error) {
	// Publish the installed kernel config (tensor_tune_* gauges) and the
	// pool/tune metrics into this server's registry.
	tensor.SetObserver(reg)
	group, pl, err := buildGroup(c, reg, stdout)
	if err != nil {
		return "", nil, nil, err
	}
	if pl != nil {
		fmt.Fprintf(stdout, "secembd: planner managing table (initial %s, re-plan every %v)\n",
			c.technique, c.planEvery)
	}
	sc.Group, sc.Dim, sc.MaxBatch = group, c.dim, c.maxBatch
	sc.ConnStreams, sc.Timeout, sc.Reg = c.connStr, c.timeout, reg
	srv := wire.NewServer(sc)
	addr, err := srv.Listen(listen)
	if err != nil {
		if pl != nil {
			pl.Stop()
		}
		group.Close()
		return "", nil, nil, err
	}
	drain := func(grace time.Duration) error {
		if pl != nil {
			pl.Stop() // no swaps mid-drain; in-flight Generates finish untouched
			if c.planFile != "" {
				// Persist the fitted cost model so the next start predicts from
				// today's observed curves instead of the analytic priors.
				if serr := profile.SaveCostModelFile(c.planFile, pl.ExportCostModel()); serr != nil {
					fmt.Fprintln(stderr, "secembd: -plan-file save:", serr)
				} else {
					fmt.Fprintf(stdout, "secembd: planner cost model saved to %s\n", c.planFile)
				}
			}
		}
		srv.StartDrain()
		time.Sleep(grace)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.DrainAll(ctx)
	}
	return addr, group, drain, nil
}

func runServe(c *config, stdout, stderr io.Writer) int {
	key, require, err := resolveKey(c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	tlsCfg, err := resolveServeTLS(c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	reg := obs.NewRegistry()
	if c.autotune == "on" {
		// The ≤100 ms kernel probe times public architecture shapes only.
		fmt.Fprintf(stdout, "secembd: kernel autotune: %+v\n", tensor.Autotune())
	}
	addr, group, drain, err := startServer(c, reg, c.addr,
		wire.ServerConfig{Key: key, RequireToken: require, TLS: tlsCfg}, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "secembd:", err)
		return 2
	}
	proto := "h2c"
	if tlsCfg != nil {
		proto = "tls"
	}
	fmt.Fprintf(stdout, "secembd: serving %s %dx%d on %s/%s (%d backends, %d shards, max-batch %d)\n",
		c.technique, c.rows, c.dim, addr, proto, c.nBackends, group.Shards(), c.maxBatch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(stdout, "secembd: draining (grace %v)\n", c.drainGrace)
	if err := drain(c.drainGrace); err != nil {
		fmt.Fprintln(stderr, "secembd: drain:", err)
		return 1
	}
	st := group.Stats()
	fmt.Fprintf(stdout, "secembd: drained; served=%d errors=%d shed=%d p99=%v\n",
		st.Served, st.Errors, st.Shed, st.P99)
	return 0
}
