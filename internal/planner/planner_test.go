package planner

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/profile"
)

func buildFor(rows, dim int, seed int64) func(int, core.Technique) (core.Generator, error) {
	return func(_ int, tech core.Technique) (core.Generator, error) {
		return core.New(tech, rows, dim, core.Options{Seed: seed, Threads: 1})
	}
}

// scanSwappable is a swap point serving a small batched scan.
func scanSwappable(t *testing.T, rows, dim int) *Swappable {
	t.Helper()
	g, err := buildFor(rows, dim, 1)(0, core.LinearScanBatched)
	if err != nil {
		t.Fatal(err)
	}
	return NewSwappable(g)
}

// oneShard wraps a single replica as the one-shard Table.Shards shape most
// tests use.
func oneShard(sw *Swappable) [][]*Swappable { return [][]*Swappable{{sw}} }

func TestSwappableInstallSwitchesGenerator(t *testing.T) {
	build := buildFor(64, 8, 1)
	scan, err := build(0, core.LinearScanBatched)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwappable(scan)
	if got := sw.Technique(); got != core.LinearScanBatched {
		t.Fatalf("initial technique = %v, want scanb", got)
	}
	out1, err := sw.Generate([]uint64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	dhe, err := build(0, core.DHE)
	if err != nil {
		t.Fatal(err)
	}
	old := sw.Install(dhe)
	if old != scan {
		t.Fatalf("Install returned %T, want the displaced scan generator", old)
	}
	if got := sw.Technique(); got != core.DHE {
		t.Fatalf("post-install technique = %v, want dhe", got)
	}
	out2, err := sw.Generate([]uint64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if out1.Rows != out2.Rows || out1.Cols != out2.Cols {
		t.Fatalf("shape changed across swap: %dx%d vs %dx%d", out1.Rows, out1.Cols, out2.Rows, out2.Cols)
	}
	if sw.Swaps() != 1 {
		t.Fatalf("Swaps() = %d, want 1", sw.Swaps())
	}
	// Each batch was recorded against the technique that served it, and the
	// swap reset nothing.
	for _, tech := range []core.Technique{core.LinearScanBatched, core.DHE} {
		if c := sw.servedBy(tech); c.calls.Load() != 1 || c.ids.Load() != 2 || c.ns.Load() <= 0 {
			t.Fatalf("%s served %d calls/%d ids/%d ns, want 1/2/>0",
				tech.Key(), c.calls.Load(), c.ids.Load(), c.ns.Load())
		}
	}
}

// TestAnalyticModelRegimes pins the prior's orderings to the paper's three
// regimes (Fig. 4/5, §IV-D).
func TestAnalyticModelRegimes(t *testing.T) {
	cases := []struct {
		rows, dim int
		batch     float64
		want      core.Technique
	}{
		{100, 16, 4, core.LinearScanBatched}, // tiny table: scan wins
		{1 << 20, 64, 1, core.CircuitORAM},   // huge table, single-id batches: ORAM
		{1 << 20, 64, 256, core.DHE},         // huge table, large batches: DHE amortizes
	}
	for _, c := range cases {
		best, bestCost := core.Technique(-1), 0.0
		for _, tech := range DefaultCandidates() {
			cost := analyticPerID(tech, c.rows, c.dim, c.batch)
			if best < 0 || cost < bestCost {
				best, bestCost = tech, cost
			}
		}
		if best != c.want {
			t.Errorf("rows=%d dim=%d batch=%g: analytic pick %v, want %v",
				c.rows, c.dim, c.batch, best, c.want)
		}
	}
}

// observe records one served batch of tech at a swap point exactly as
// Swappable.Generate does, with a latency the test dictates — the planner's
// signals are these public numbers and nothing else.
func observe(sw *Swappable, tech core.Technique, batch int, lat time.Duration) {
	sw.servedBy(tech).record(batch, lat)
}

func TestSamplerWindowsAndEWMA(t *testing.T) {
	// Two replicas of one shard: the stream is their sum.
	replicas := []*Swappable{scanSwappable(t, 64, 8), scanSwappable(t, 64, 8)}
	s := newSampler(0.5)
	shard := ShardLabel("t", 0)

	if sig := s.sample(core.DHE, shard, replicas); sig.Observed() {
		t.Fatalf("idle technique reports Observed: %+v", sig)
	}
	observe(replicas[0], core.DHE, 8, 2*time.Millisecond)
	observe(replicas[1], core.DHE, 8, 2*time.Millisecond)
	sig := s.sample(core.DHE, shard, replicas)
	if sig.Batches != 2 || sig.IDs != 16 {
		t.Fatalf("window deltas = %d batches/%d ids, want 2/16", sig.Batches, sig.IDs)
	}
	if sig.MeanBatch != 8 || sig.EWMABatch != 8 {
		t.Fatalf("mean batch = %g (ewma %g), want 8", sig.MeanBatch, sig.EWMABatch)
	}
	if sig.EWMANs != 2e6 {
		t.Fatalf("first EWMA = %g, want seed 2e6", sig.EWMANs)
	}
	// A faster window pulls the EWMA halfway (alpha 0.5).
	observe(replicas[0], core.DHE, 8, 1*time.Millisecond)
	sig = s.sample(core.DHE, shard, replicas)
	if sig.EWMANs != 1.5e6 {
		t.Fatalf("EWMA after 1ms window = %g, want 1.5e6", sig.EWMANs)
	}
	// An idle window leaves the EWMA standing.
	sig = s.sample(core.DHE, shard, replicas)
	if sig.Batches != 0 || sig.EWMANs != 1.5e6 {
		t.Fatalf("idle window mutated signal: %+v", sig)
	}
	// Another technique's traffic at the same swap points is another stream.
	if sig := s.sample(core.LinearScanBatched, shard, replicas); sig.Observed() {
		t.Fatalf("scanb stream picked up DHE traffic: %+v", sig)
	}
}

// TestSamplerKeysStreamsPerShard pins the v2 invariant: the same technique
// on different shards is two independent EWMA streams.
func TestSamplerKeysStreamsPerShard(t *testing.T) {
	s := newSampler(1)
	s0, s1 := ShardLabel("t", 0), ShardLabel("t", 1)
	r0, r1 := []*Swappable{scanSwappable(t, 64, 8)}, []*Swappable{scanSwappable(t, 64, 8)}
	observe(r0[0], core.DHE, 4, 8*time.Millisecond)
	observe(r1[0], core.DHE, 64, 1*time.Millisecond)
	sig0 := s.sample(core.DHE, s0, r0)
	sig1 := s.sample(core.DHE, s1, r1)
	if sig0.EWMANs != 8e6 || sig0.EWMABatch != 4 {
		t.Fatalf("shard 0 signal = %+v, want 8e6ns @ batch 4", sig0)
	}
	if sig1.EWMANs != 1e6 || sig1.EWMABatch != 64 {
		t.Fatalf("shard 1 signal = %+v, want 1e6ns @ batch 64", sig1)
	}
}

// TestNilRegistryPlannerObservesTraffic: the planner measures at its own
// swap points, so one built without a registry (the self-hosted
// `secembd -soak -plan`, the leakcheck target) sees exactly what one with a
// registry sees. Real Generate traffic on shard 1 only must surface as an
// observed incumbent at the driven batch size there, and leave idle shard 0
// on the analytic prior.
func TestNilRegistryPlannerObservesTraffic(t *testing.T) {
	const rows, dim, batch = 64, 8, 5
	sws := []*Swappable{scanSwappable(t, rows, dim), scanSwappable(t, rows, dim)}
	p := New(Config{})
	if err := p.Manage(Table{
		Name: "t", Rows: rows, Dim: dim, Build: buildFor(rows, dim, 1),
		Shards:  [][]*Swappable{{sws[0]}, {sws[1]}},
		Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sws[1].Generate([]uint64{1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
	}
	byShard := map[int]Decision{}
	for _, d := range p.ReplanNow() {
		byShard[d.Shard] = d
	}
	if d := byShard[1]; !d.Observed || d.MeanBatch != batch {
		t.Fatalf("shard 1 decision = %+v, want observed incumbent at mean batch %d", d, batch)
	}
	if d := byShard[0]; d.Observed {
		t.Fatalf("idle shard 0 decision = %+v, want analytic prior (not observed)", d)
	}
}

func TestPlannerSwapsOnObservedCrossover(t *testing.T) {
	reg := obs.NewRegistry()
	rows, dim := 512, 16
	build := buildFor(rows, dim, 1)
	scan, err := build(0, core.LinearScanBatched)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg, MinDwell: time.Nanosecond, Hysteresis: 0.1, Alpha: 1})
	if err := p.Manage(Table{
		Name: "t", Rows: rows, Dim: dim,
		Build: build, Shards: oneShard(sw),
		Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}

	// Feed observed signals that invert the analytic prior for this tiny
	// table: the scan measured catastrophically slow, DHE fast at the same
	// batch size. The model must follow the measurements.
	for i := 0; i < 4; i++ {
		observe(sw, core.LinearScanBatched, 8, 80*time.Millisecond)
		observe(sw, core.DHE, 8, 100*time.Microsecond)
		observe(sw, core.CircuitORAM, 8, 50*time.Millisecond)
	}
	ds := p.ReplanNow()
	if len(ds) != 1 {
		t.Fatalf("got %d decisions, want 1", len(ds))
	}
	d := ds[0]
	if !d.Swapped || d.Chosen != core.DHE {
		t.Fatalf("decision = %+v, want swap to DHE", d)
	}
	if d.Shard != 0 || !d.Observed {
		t.Fatalf("decision = %+v, want shard 0 with observed incumbent", d)
	}
	if got := sw.Technique(); got != core.DHE {
		t.Fatalf("replica serves %v after swap, want DHE", got)
	}
	if techs, _ := p.ShardTechniques("t"); len(techs) != 1 || techs[0] != core.DHE {
		t.Fatalf("planner shard techniques = %v, want [dhe]", techs)
	}
	if _, err := sw.Generate([]uint64{1, 2, 3}); err != nil {
		t.Fatalf("post-swap Generate: %v", err)
	}
}

// TestPlannerShardsDivergeAndSwapIndependently is the tentpole contract:
// two shards of one table, fed opposite observed signals, converge to
// different techniques in a single re-plan pass, and the mixed state is
// visible through ShardTechniques.
func TestPlannerShardsDivergeAndSwapIndependently(t *testing.T) {
	reg := obs.NewRegistry()
	rows, dim := 512, 16
	build := buildFor(rows, dim, 1)
	sws := make([]*Swappable, 2)
	for i := range sws {
		g, err := build(i, core.LinearScanBatched)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = NewSwappable(g)
	}
	p := New(Config{Reg: reg, MinDwell: time.Nanosecond, Hysteresis: 0.1, Alpha: 1})
	if err := p.Manage(Table{
		Name: "t", Rows: rows, Dim: dim, Build: build,
		Shards:  [][]*Swappable{{sws[0]}, {sws[1]}},
		Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}

	// Shard 0's scan measured catastrophically slow with DHE fast; shard 1's
	// scan measured fast. One pass must swap shard 0 and keep shard 1.
	for i := 0; i < 4; i++ {
		observe(sws[0], core.LinearScanBatched, 8, 80*time.Millisecond)
		observe(sws[0], core.DHE, 8, 100*time.Microsecond)
		observe(sws[1], core.LinearScanBatched, 8, 50*time.Microsecond)
	}
	ds := p.ReplanNow()
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2 (one per shard)", len(ds))
	}
	byShard := map[int]Decision{}
	for _, d := range ds {
		byShard[d.Shard] = d
	}
	if d := byShard[0]; !d.Swapped || d.Chosen != core.DHE {
		t.Fatalf("shard 0 decision = %+v, want swap to DHE", d)
	}
	if d := byShard[1]; d.Swapped || d.Chosen != core.LinearScanBatched {
		t.Fatalf("shard 1 decision = %+v, want held scanb", d)
	}
	if got := sws[0].Technique(); got != core.DHE {
		t.Fatalf("shard 0 replica serves %v, want DHE", got)
	}
	if got := sws[1].Technique(); got != core.LinearScanBatched {
		t.Fatalf("shard 1 replica serves %v, want scanb", got)
	}
	techs, err := p.ShardTechniques("t")
	if err != nil {
		t.Fatal(err)
	}
	if techs[0] != core.DHE || techs[1] != core.LinearScanBatched {
		t.Fatalf("ShardTechniques = %v, want [dhe scanb]", techs)
	}
	// Shard-labeled metrics reflect the split.
	a0 := reg.Gauge("planner_active_technique", obs.LabelTable, "t", obs.LabelShard, "0").Value()
	a1 := reg.Gauge("planner_active_technique", obs.LabelTable, "t", obs.LabelShard, "1").Value()
	if a0 != int64(core.DHE) || a1 != int64(core.LinearScanBatched) {
		t.Fatalf("planner_active_technique{shard} = %d/%d, want dhe/scanb", a0, a1)
	}
}

func TestForceSwapShardLeavesSiblings(t *testing.T) {
	reg := obs.NewRegistry()
	build := buildFor(256, 8, 1)
	sws := make([]*Swappable, 2)
	for i := range sws {
		g, _ := build(i, core.LinearScanBatched)
		sws[i] = NewSwappable(g)
	}
	p := New(Config{Reg: reg})
	if err := p.Manage(Table{
		Name: "t", Rows: 256, Dim: 8, Build: build,
		Shards:  [][]*Swappable{{sws[0]}, {sws[1]}},
		Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.ForceSwapShard("t", 1, core.DHE); err != nil {
		t.Fatal(err)
	}
	if got := sws[0].Technique(); got != core.LinearScanBatched {
		t.Fatalf("untouched shard 0 serves %v, want scanb", got)
	}
	if got := sws[1].Technique(); got != core.DHE {
		t.Fatalf("swapped shard 1 serves %v, want dhe", got)
	}
	if err := p.ForceSwapShard("t", 5, core.DHE); err == nil {
		t.Fatal("ForceSwapShard on missing shard did not error")
	}
	if err := p.ForceSwapShard("nope", 0, core.DHE); err == nil {
		t.Fatal("ForceSwapShard on unknown table did not error")
	}
}

func TestPlannerHysteresisHoldsIncumbent(t *testing.T) {
	reg := obs.NewRegistry()
	rows, dim := 512, 16
	build := buildFor(rows, dim, 1)
	scan, _ := build(0, core.LinearScanBatched)
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg, MinDwell: time.Nanosecond, Hysteresis: 0.5, Alpha: 1})
	if err := p.Manage(Table{
		Name: "t", Rows: rows, Dim: dim, Build: build,
		Shards: oneShard(sw), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	// DHE measured only marginally faster: inside the 50% hysteresis band.
	observe(sw, core.LinearScanBatched, 8, 1000*time.Microsecond)
	observe(sw, core.DHE, 8, 900*time.Microsecond)
	observe(sw, core.CircuitORAM, 8, 5000*time.Microsecond)
	d := p.ReplanNow()[0]
	if d.Swapped {
		t.Fatalf("swapped inside hysteresis band: %+v", d)
	}
	if sw.Technique() != core.LinearScanBatched {
		t.Fatal("replica changed technique despite held decision")
	}
}

func TestPlannerDwellBlocksBackToBackSwaps(t *testing.T) {
	reg := obs.NewRegistry()
	rows, dim := 512, 16
	build := buildFor(rows, dim, 1)
	scan, _ := build(0, core.LinearScanBatched)
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg, MinDwell: time.Hour, Hysteresis: 0.01, Alpha: 1})
	if err := p.Manage(Table{
		Name: "t", Rows: rows, Dim: dim, Build: build,
		Shards: oneShard(sw), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	observe(sw, core.LinearScanBatched, 8, 80*time.Millisecond)
	observe(sw, core.DHE, 8, 100*time.Microsecond)
	observe(sw, core.CircuitORAM, 8, 50*time.Millisecond)
	d := p.ReplanNow()[0]
	if d.Swapped || d.Reason != "dwell" {
		t.Fatalf("decision = %+v, want dwell hold (tables were registered just now)", d)
	}
}

func TestForceSwapBypassesModel(t *testing.T) {
	reg := obs.NewRegistry()
	build := buildFor(256, 8, 1)
	scan, _ := build(0, core.LinearScanBatched)
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg})
	if err := p.Manage(Table{
		Name: "t", Rows: 256, Dim: 8, Build: build,
		Shards: oneShard(sw), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.ForceSwap("t", core.CircuitORAM); err != nil {
		t.Fatal(err)
	}
	if sw.Technique() != core.CircuitORAM {
		t.Fatalf("replica serves %v, want circuit", sw.Technique())
	}
	if err := p.ForceSwap("nope", core.DHE); err == nil {
		t.Fatal("ForceSwap on unknown table did not error")
	}
	if got := reg.Counter("planner_swap_total").Value(); got != 1 {
		t.Fatalf("planner_swap_total = %d, want 1", got)
	}
}

func TestSwapBuildFailureKeepsIncumbent(t *testing.T) {
	reg := obs.NewRegistry()
	goodBuild := buildFor(256, 8, 1)
	scan, _ := goodBuild(0, core.LinearScanBatched)
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg})
	if err := p.Manage(Table{
		Name: "t", Rows: 256, Dim: 8,
		Build: func(int, core.Technique) (core.Generator, error) {
			return nil, fmt.Errorf("representation store offline")
		},
		Shards: oneShard(sw), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.ForceSwap("t", core.DHE); err == nil {
		t.Fatal("ForceSwap with failing Build did not error")
	}
	if sw.Technique() != core.LinearScanBatched {
		t.Fatal("failed swap still changed the serving generator")
	}
	if got := reg.Counter("planner_build_errors_total").Value(); got != 1 {
		t.Fatalf("planner_build_errors_total = %d, want 1", got)
	}
	if _, err := sw.Generate([]uint64{1}); err != nil {
		t.Fatalf("incumbent broken after failed swap: %v", err)
	}
}

func TestStartStopLoop(t *testing.T) {
	reg := obs.NewRegistry()
	build := buildFor(128, 8, 1)
	scan, _ := build(0, core.LinearScanBatched)
	sw := NewSwappable(scan)
	p := New(Config{Reg: reg, Interval: time.Millisecond})
	if err := p.Manage(Table{
		Name: "t", Rows: 128, Dim: 8, Build: build,
		Shards: oneShard(sw), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	p.Start()
	deadline := time.After(2 * time.Second)
	for reg.Counter("planner_replan_total").Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop never re-planned")
		case <-time.After(time.Millisecond):
		}
	}
	p.Stop()
	p.Stop() // idempotent
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		t.Fatal("loop did not exit after Stop")
	}
}

// TestCostModelRoundTripSkipsWarmup proves the persisted cost model does
// what -plan-file promises: a planner that observed real signals exports
// them, and a *fresh* planner seeded from the saved file makes its first
// re-plan decision from those EWMAs (Decision.Observed, and the same swap
// the observing planner would make) instead of the analytic priors.
func TestCostModelRoundTripSkipsWarmup(t *testing.T) {
	rows, dim := 512, 16

	// First life: observe the prior-inverting signals and export.
	pA := New(Config{MinDwell: time.Hour, Alpha: 1})
	swA := scanSwappable(t, rows, dim)
	if err := pA.Manage(Table{
		Name: "t", Rows: rows, Dim: dim, Build: buildFor(rows, dim, 1),
		Shards: oneShard(swA), Initial: core.LinearScanBatched,
	}); err != nil {
		t.Fatal(err)
	}
	observe(swA, core.LinearScanBatched, 8, 80*time.Millisecond)
	observe(swA, core.DHE, 8, 100*time.Microsecond)
	pA.ReplanNow() // folds the window into the sampler EWMAs (dwell blocks the swap)

	m := pA.ExportCostModel()
	if len(m.Entries) != 2 {
		t.Fatalf("exported %d streams, want 2 (observed scanb + dhe): %+v", len(m.Entries), m.Entries)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := profile.SaveCostModelFile(path, m); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh planner with zero traffic. Unseeded, its
	// first decision runs on analytic priors (Observed=false, no swap for
	// this tiny table); seeded from the file, the first decision predicts
	// from the persisted EWMAs and swaps immediately.
	fresh := func(seeded bool) Decision {
		reg := obs.NewRegistry()
		p := New(Config{Reg: reg, MinDwell: time.Nanosecond, Hysteresis: 0.1, Alpha: 1})
		build := buildFor(rows, dim, 1)
		scan, _ := build(0, core.LinearScanBatched)
		if err := p.Manage(Table{
			Name: "t", Rows: rows, Dim: dim, Build: build,
			Shards: oneShard(NewSwappable(scan)), Initial: core.LinearScanBatched,
		}); err != nil {
			t.Fatal(err)
		}
		if seeded {
			loaded, installed, err := profile.InstallCostModelFile(path, reg)
			if err != nil || !installed {
				t.Fatalf("InstallCostModelFile: installed=%v err=%v", installed, err)
			}
			p.SeedCostModel(loaded)
		}
		return p.ReplanNow()[0]
	}

	if d := fresh(false); d.Observed || d.Swapped {
		t.Fatalf("unseeded cold start decision = %+v, want analytic-prior warmup (no observation, no swap)", d)
	}
	d := fresh(true)
	if !d.Observed {
		t.Fatalf("seeded first decision = %+v, want Observed (persisted EWMAs in effect)", d)
	}
	if !d.Swapped || d.Chosen != core.DHE {
		t.Fatalf("seeded first decision = %+v, want immediate swap to DHE from persisted crossover", d)
	}
}
