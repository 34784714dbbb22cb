// Package frontdoor assembles the served stack — replicated embedding
// backends (planner-managed under Plan), sharded serving group, wire server
// — from secembd's defaults. secembd and the leakcheck wire target both
// start it here, so the audit runs the configuration that ships.
package frontdoor

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/planner"
	"secemb/internal/profile"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/wire"
)

// Config is the served stack. Every field but the last four is the
// secembd serve flag of the same name (PlanEvery is -plan-interval), whose
// usage text documents it.
type Config struct {
	Technique            string
	Rows, Dim, Threshold int
	Backends, Shards     int
	MaxBatch, QueueDepth int
	MaxWait, ShedWait    time.Duration
	ConnStreams          int
	Timeout              time.Duration
	Plan                 bool
	PlanEvery            time.Duration
	PlanFile             string

	// Key verifies connection tokens, which RequireToken makes mandatory.
	// TLS, when non-nil, terminates TLS on the listener.
	Key          wire.Key
	RequireToken bool
	TLS          *tls.Config
	// Core builds every generator: Seed and Int8 in secembd, a Tracer and
	// Threads in the audit. Start sets Obs to its registry.
	Core core.Options
}

// Defaults returns secembd's serving defaults.
func Defaults() Config {
	return Config{
		Technique: "dual",
		Rows:      4096,
		Dim:       64,
		Threshold: 4,
		Backends:  4,
		MaxBatch:  64,
		MaxWait:   200 * time.Microsecond,
		ShedWait:  2 * time.Millisecond,
		Timeout:   2 * time.Second,
		PlanEvery: 10 * time.Second,
		Core:      core.Options{Seed: 1, Int8: true},
	}
}

// Stack is a started front door. Technique is what its backends started
// on: Config.Technique, with "dual" remapped under Plan.
type Stack struct {
	Addr      string
	Group     *serving.Group
	Technique string

	cfg    Config
	srv    *wire.Server
	pl     *planner.Planner // nil without Plan
	stdout io.Writer
}

// Start builds the stack, publishing its metrics into reg (nil → private
// counters, no metrics endpoints), and listens on listen. Backends are
// stateful, so each gets its own generator (same seed → same rows; each
// ORAM keys its own leaves). On error nothing is left running.
func Start(cfg Config, listen string, reg *obs.Registry, stdout io.Writer) (*Stack, error) {
	if cfg.Plan && cfg.Technique == "dual" {
		// Plan supersedes the static dual hybrid: it starts from the batched
		// scan, and says so, since the serving line will read scanb.
		cfg.Technique = core.LinearScanBatched.Key()
		fmt.Fprintf(stdout, "secembd: -plan supersedes the static dual hybrid: -technique dual remapped to %s as the starting technique; the planner re-fits per shard from there\n",
			cfg.Technique)
	}
	cfg.Core.Obs = reg
	bes := make([]serving.Backend, cfg.Backends)
	for i := range bes {
		gen, err := core.NewByKey(cfg.Technique, cfg.Rows, cfg.Dim, cfg.Threshold, cfg.Core)
		if err != nil {
			return nil, err
		}
		if cfg.Plan {
			gen = planner.NewSwappable(gen)
		}
		bes[i] = backends.NewEmbedding(gen, cfg.MaxBatch)
	}
	st := &Stack{Technique: cfg.Technique, cfg: cfg, stdout: stdout}
	st.Group = serving.NewGroup(bes, serving.GroupConfig{
		Shards: cfg.Shards, QueueDepth: cfg.QueueDepth,
		Coalesce: serving.CoalesceConfig{MaxWait: cfg.MaxWait}, ShedWait: cfg.ShedWait,
	}, serving.WithObserver(reg))
	if cfg.Plan {
		if err := st.startPlanner(reg); err != nil {
			st.Group.Close()
			return nil, err
		}
	}
	st.srv = wire.NewServer(wire.ServerConfig{
		Group: st.Group, Dim: cfg.Dim, MaxBatch: cfg.MaxBatch,
		Key: cfg.Key, RequireToken: cfg.RequireToken, TLS: cfg.TLS,
		ConnStreams: cfg.ConnStreams, Timeout: cfg.Timeout, Reg: reg,
	})
	addr, err := st.srv.Listen(listen)
	if err != nil {
		if st.pl != nil {
			st.pl.Stop()
		}
		st.Group.Close()
		return nil, err
	}
	st.Addr = addr
	return st, nil
}

// startPlanner hands each shard's Swappables (in ShardBackends, the
// authoritative shard→replica map) to a planner, seeds its cost model from
// PlanFile when the recorded machine matches, and starts it.
func (st *Stack) startPlanner(reg *obs.Registry) error {
	cfg := st.cfg
	initial, err := core.ParseTechnique(cfg.Technique)
	if err != nil {
		return err
	}
	shardSws := make([][]*planner.Swappable, st.Group.Shards())
	for si := range shardSws {
		for _, be := range st.Group.ShardBackends(si) {
			shardSws[si] = append(shardSws[si], be.(*backends.Embedding).Generator().(*planner.Swappable))
		}
	}
	pl := planner.New(planner.Config{Interval: cfg.PlanEvery, Reg: reg})
	if err := pl.Manage(planner.Table{
		Name: "embed", Rows: cfg.Rows, Dim: cfg.Dim, Initial: initial,
		Build: func(_ int, tech core.Technique) (core.Generator, error) {
			return core.New(tech, cfg.Rows, cfg.Dim, cfg.Core)
		},
		Shards: shardSws,
	}); err != nil {
		return err
	}
	if cfg.PlanFile != "" {
		m, installed, err := profile.InstallCostModelFile(cfg.PlanFile, reg)
		if err != nil {
			return fmt.Errorf("-plan-file: %v", err)
		}
		if installed {
			pl.SeedCostModel(m)
			fmt.Fprintf(st.stdout, "secembd: planner cost model loaded from %s (%d streams) — skipping analytic-prior warmup\n",
				cfg.PlanFile, len(m.Entries))
		}
	}
	pl.Start()
	st.pl = pl
	fmt.Fprintf(st.stdout, "secembd: planner managing table (initial %s, re-plan every %v)\n",
		cfg.Technique, cfg.PlanEvery)
	return nil
}

// Drain stops the planner (no swaps mid-drain) and saves its fitted cost
// model to PlanFile for the next start, reporting a failed save on stderr.
// It then answers 503 for grace (load balancers route away), closes the
// listener, finishes in-flight requests and drains the group's queues.
func (st *Stack) Drain(grace time.Duration, stderr io.Writer) error {
	if st.pl != nil {
		st.pl.Stop()
		if st.cfg.PlanFile != "" {
			if err := profile.SaveCostModelFile(st.cfg.PlanFile, st.pl.ExportCostModel()); err != nil {
				fmt.Fprintln(stderr, "secembd: -plan-file save:", err)
			} else {
				fmt.Fprintf(st.stdout, "secembd: planner cost model saved to %s\n", st.cfg.PlanFile)
			}
		}
	}
	st.srv.StartDrain()
	time.Sleep(grace)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return st.srv.DrainAll(ctx)
}
