// Package planner is the adaptive hybrid technique planner: the online,
// profile-driven generalization of the paper's static §IV-D dual scheme.
// Where the dual picks scan-vs-DHE per table once, from size thresholds
// fixed at deployment, the planner keeps re-fitting the scan/ORAM/DHE
// crossover model from live signals — table shape, the aggregate batch
// sizes the serving layer is actually producing, and per-technique latency
// EWMAs sampled at the swap points themselves — and hot-swaps a table's
// generator behind the serving backends when the model says another
// technique is now cheaper. Production tables drift in size and skew; the
// planner follows.
//
// Plans are shard-granular (v2). Under consistent routing
// (serving.RouteShard) each shard of a table sees its own key population
// and batch-size mix, so one technique per table is a compromise: a shard
// soaking large coalesced batches wants DHE while a sibling trickling
// single-row lookups wants the scan or ORAM. The planner therefore keys
// its EWMAs, crossover model, decisions and metrics per (table, shard):
// replicas of the *same* shard still swap all-or-nothing (a shard split
// across techniques would serve inconsistently), while different shards
// plan and swap independently and concurrently. The fitted cost model can
// be exported and persisted (profile.CostModel) so a restart warms from
// yesterday's observed curves instead of the analytic priors.
//
// Security (§V-B): every input to a plan decision is public. Rows, dim
// and candidate set are deployment configuration; the shard label names a
// replica group (topology, fixed at deployment); batch-size aggregates
// and latencies are observable by the adversary already and are recorded
// at one point that never looks at an id (Swappable.Generate counts and
// clocks batches, nothing else). Technique selection and swap *timing*
// therefore leak nothing about individual ids — per shard exactly as per
// table, because a request's shard is a function of its public routing
// key, never of the ids inside it. The invariant is enforced two ways:
// statically by obliviouslint (the `plan` fixture flags secret-indexed
// plan tables, including the per-shard variant) and dynamically by the
// leakcheck "planner" roster target, which replays the adversarial panel
// across an *asymmetric* per-shard swap boundary (one shard on scan, its
// sibling hot-swapped to DHE) and demands trace equality.
//
// The swap itself is a prepare → install → drain lifecycle (Swappable):
// fresh representations are built off the serving path, published with one
// atomic pointer swap, and the old generator is handed back only after
// every in-flight batch on it has finished — no request is ever dropped
// or served by a torn-down representation.
package planner

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"secemb/internal/core"
	"secemb/internal/obs"
	"secemb/internal/profile"
)

// candidates is the technique menu the planner chooses from: the batched
// scan for small tables, Circuit ORAM for big-table/small-batch, DHE for
// big-table/large-batch — the three regimes of §IV.
var candidates = []core.Technique{core.LinearScanBatched, core.CircuitORAM, core.DHE}

// DefaultCandidates returns a copy of the planner's technique menu.
func DefaultCandidates() []core.Technique { return slices.Clone(candidates) }

// ShardLabel renders the canonical label of a managed table's shard: the
// key of the shard's EWMA streams in the persisted cost model
// (profile.CostEntry.Shard).
func ShardLabel(table string, shard int) string {
	return table + "/" + strconv.Itoa(shard)
}

// Config shapes a Planner.
type Config struct {
	// Interval is the sampling/re-plan period of Start's background loop
	// (0 → 10s). ReplanNow ignores it.
	Interval time.Duration
	// Hysteresis is the minimum predicted relative improvement before the
	// planner swaps (0 → 0.2): a candidate must beat the incumbent's
	// predicted per-id cost by this fraction. Swaps cost a representation
	// rebuild, so marginal wins are not worth flapping for.
	Hysteresis float64
	// MinDwell is the minimum time between swaps of one shard (0 → 30s):
	// even a model that flips every window cannot thrash the backends.
	// Forced swaps (ForceSwap/ForceSwapShard) ignore it.
	MinDwell time.Duration
	// Alpha is the EWMA smoothing factor for sampled signals (0 → 0.3).
	Alpha float64
	// Reg receives the planner_* metrics. It is export only: the planner
	// observes traffic at its own swap points, so a nil registry plans
	// exactly like a non-nil one.
	Reg *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.2
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 30 * time.Second
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	return c
}

// Table declares one managed embedding table: its public shape, how to
// build a fresh generator for any candidate technique, and the shard→swap
// point assignment its serving replicas generate through.
type Table struct {
	// Name labels the table in metrics and decisions.
	Name string
	// Rows and Dim are the table's public shape.
	Rows, Dim int
	// Build constructs one fresh replica representation of tech for the
	// given shard index. It runs off the serving path (prepare phase), so
	// it may be slow; serving continues on the incumbent meanwhile. The
	// planner measures the result at the swap point it installs it behind,
	// so Build owes it no instrumentation.
	Build func(shard int, tech core.Technique) (core.Generator, error)
	// Shards is the shard→replica assignment: Shards[i] holds the swap
	// points of shard i's replicas (serving.Group.ShardBackends exposes
	// the matching backend assignment). Replicas of one shard swap
	// all-or-nothing; different shards plan and swap independently.
	Shards [][]*Swappable
	// Initial is the technique every shard starts on.
	Initial core.Technique
}

// shardState is the planner's per-shard plan: the unit of decision-making
// and swapping. Its mutex serializes swaps of the shard and guards
// current/lastSwap; different shards' swaps run concurrently.
type shardState struct {
	idx      int
	label    string
	replicas []*Swappable

	mu       sync.Mutex
	current  core.Technique
	lastSwap time.Time

	gActive    *obs.Gauge
	gMeanBatch *obs.Gauge
	cReplan    *obs.Counter
	gPredicted []*obs.Gauge                    // parallel to candidates
	cSwapTech  map[core.Technique]*obs.Counter // filled on first swap to each technique
}

// managedTable is the planner's per-table state: shared shape plus one
// shardState per shard.
type managedTable struct {
	Table
	shards []*shardState
}

// Decision records one re-plan pass over one shard of one table.
type Decision struct {
	Table string
	// Shard is the shard index the decision applies to.
	Shard   int
	Current core.Technique
	Chosen  core.Technique
	// PerIDNs is the predicted per-id cost of every candidate at the
	// shard's current operating point.
	PerIDNs map[core.Technique]float64
	// MeanBatch is the smoothed aggregate batch size the prediction used.
	MeanBatch float64
	// Observed reports whether the incumbent's prediction came from a
	// measured (or persisted) EWMA rather than the analytic prior — false
	// exactly during the cold-start warmup a persisted cost model skips.
	Observed bool
	// Swapped reports whether the pass installed a new technique; Reason
	// explains a kept incumbent ("within hysteresis", "dwell", …).
	Swapped bool
	Reason  string
}

// Planner owns the re-plan loop over a set of managed tables.
type Planner struct {
	cfg     Config
	sampler *sampler

	mu     sync.Mutex // guards tables registry + sampler
	tables []*managedTable

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mReplan    *obs.Counter
	mSwap      *obs.Counter
	mBuildErr  *obs.Counter
	mPrepareNs *obs.Histogram
}

// New builds a planner; call Manage to register tables, then Start (or
// drive passes manually with ReplanNow).
func New(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:        cfg,
		sampler:    newSampler(cfg.Alpha),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		mReplan:    cfg.Reg.Counter("planner_replan_total"),
		mSwap:      cfg.Reg.Counter("planner_swap_total"),
		mBuildErr:  cfg.Reg.Counter("planner_build_errors_total"),
		mPrepareNs: cfg.Reg.Histogram("planner_prepare_ns"),
	}
}

// Manage registers a table. Not safe to call after Start.
func (p *Planner) Manage(t Table) error {
	if t.Name == "" || t.Build == nil || len(t.Shards) == 0 {
		return fmt.Errorf("planner: table needs a name, a Build func and ≥1 shard")
	}
	if t.Rows < 2 || t.Dim < 1 {
		return fmt.Errorf("planner: table %q has invalid shape %dx%d", t.Name, t.Rows, t.Dim)
	}
	mt := &managedTable{Table: t}
	for i, replicas := range t.Shards {
		if len(replicas) == 0 {
			return fmt.Errorf("planner: table %q shard %d has no replicas", t.Name, i)
		}
		shard := strconv.Itoa(i)
		ss := &shardState{
			idx:        i,
			label:      ShardLabel(t.Name, i),
			replicas:   replicas,
			current:    t.Initial,
			lastSwap:   time.Now(),
			gActive:    p.cfg.Reg.Gauge("planner_active_technique", obs.LabelTable, t.Name, obs.LabelShard, shard),
			gMeanBatch: p.cfg.Reg.Gauge("planner_mean_batch_milli", obs.LabelTable, t.Name, obs.LabelShard, shard),
			cReplan:    p.cfg.Reg.Counter("planner_replan_total", obs.LabelTable, t.Name, obs.LabelShard, shard),
			cSwapTech:  map[core.Technique]*obs.Counter{},
		}
		for _, tech := range candidates {
			ss.gPredicted = append(ss.gPredicted, p.cfg.Reg.Gauge("planner_predicted_perid_ns",
				obs.LabelTable, t.Name, obs.LabelShard, shard, obs.LabelTech, tech.Key()))
		}
		ss.gActive.Set(int64(t.Initial))
		mt.shards = append(mt.shards, ss)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tables = append(p.tables, mt)
	return nil
}

// Start launches the background re-plan loop at the configured interval.
func (p *Planner) Start() {
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.ReplanNow()
			}
		}
	}()
}

// Stop halts the background loop (idempotent; a never-started planner
// stops cleanly too). In-progress swaps complete.
func (p *Planner) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// ReplanNow runs one full pass: sample every shard's signals, refit,
// decide, and swap where the model says so. Decisions for different
// shards execute concurrently — one shard's multi-second representation
// build never delays a sibling's swap — while replicas of a single shard
// still swap together. Safe to call concurrently with the background
// loop; the sampling phase serializes on the planner lock, and each
// shard's swap serializes on its own lock.
func (p *Planner) ReplanNow() []Decision {
	p.mReplan.Inc()

	// Sample under the planner lock: the sampler is single-threaded, and
	// one coherent window per pass keeps every shard's decision reading
	// the same snapshot.
	type slot struct {
		t    *managedTable
		ss   *shardState
		sigs map[core.Technique]Signal
	}
	var slots []slot
	p.mu.Lock()
	for _, t := range p.tables {
		for _, ss := range t.shards {
			sigs := make(map[core.Technique]Signal, len(candidates))
			for _, tech := range candidates {
				sigs[tech] = p.sampler.sample(tech, ss.label, ss.replicas)
			}
			slots = append(slots, slot{t, ss, sigs})
		}
	}
	p.mu.Unlock()

	// Decide + swap, one goroutine per shard: different shards of one
	// table (and of different tables) drift independently, so their
	// prepare→install→drain lifecycles run concurrently.
	decisions := make([]Decision, len(slots))
	var wg sync.WaitGroup
	for i, s := range slots {
		wg.Add(1)
		go func(i int, s slot) {
			defer wg.Done()
			decisions[i] = p.replanShard(s.t, s.ss, s.sigs)
		}(i, s)
	}
	wg.Wait()
	return decisions
}

// replanShard decides (and possibly swaps) one shard of one table.
func (p *Planner) replanShard(t *managedTable, ss *shardState, sigs map[core.Technique]Signal) Decision {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.cReplan.Inc()

	// The operating point: the smoothed batch size of whatever technique
	// is serving this shard now. With no traffic yet, predict at batch 1
	// (the most conservative point for DHE's amortization).
	cur := sigs[ss.current]
	batch := cur.EWMABatch
	if batch < 1 {
		batch = 1
	}
	ss.gMeanBatch.Set(int64(batch * 1000))

	d := Decision{
		Table:     t.Name,
		Shard:     ss.idx,
		Current:   ss.current,
		Chosen:    ss.current,
		MeanBatch: batch,
		Observed:  cur.Observed(),
		PerIDNs:   make(map[core.Technique]float64, len(candidates)),
	}
	best, bestCost := ss.current, predictPerID(ss.current, t.Rows, t.Dim, batch, cur)
	for i, tech := range candidates {
		cost := predictPerID(tech, t.Rows, t.Dim, batch, sigs[tech])
		d.PerIDNs[tech] = cost
		ss.gPredicted[i].Set(int64(cost))
		if cost < bestCost {
			best, bestCost = tech, cost
		}
	}
	if best == ss.current {
		d.Reason = "incumbent cheapest"
		return d
	}
	incumbent := d.PerIDNs[ss.current]
	if incumbent > 0 && (incumbent-bestCost)/incumbent < p.cfg.Hysteresis {
		d.Reason = fmt.Sprintf("%s within hysteresis of %s", best.Key(), ss.current.Key())
		return d
	}
	if time.Since(ss.lastSwap) < p.cfg.MinDwell {
		d.Reason = "dwell"
		return d
	}
	if err := p.swapShard(t, ss, best); err != nil {
		d.Reason = fmt.Sprintf("swap failed: %v", err)
		return d
	}
	d.Chosen, d.Swapped, d.Reason = best, true, "model crossover"
	return d
}

// ForceSwap installs tech on every shard of the named table immediately,
// bypassing the model, hysteresis and dwell — the lever for tests, the
// leakcheck audit, and operational overrides. The lifecycle per shard is
// identical to an organic re-plan swap: prepare fresh replicas, install
// atomically, drain the old.
func (p *Planner) ForceSwap(table string, tech core.Technique) error {
	mt, err := p.lookup(table)
	if err != nil {
		return err
	}
	for _, ss := range mt.shards {
		ss.mu.Lock()
		err := p.swapShard(mt, ss, tech)
		ss.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ForceSwapShard installs tech on one shard of the named table — the
// asymmetric-swap lever: sibling shards keep serving their own plans.
func (p *Planner) ForceSwapShard(table string, shard int, tech core.Technique) error {
	mt, err := p.lookup(table)
	if err != nil {
		return err
	}
	if shard < 0 || shard >= len(mt.shards) {
		return fmt.Errorf("planner: table %q has no shard %d", table, shard)
	}
	ss := mt.shards[shard]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return p.swapShard(mt, ss, tech)
}

// ShardTechniques reports the named table's active technique per shard.
func (p *Planner) ShardTechniques(table string) ([]core.Technique, error) {
	mt, err := p.lookup(table)
	if err != nil {
		return nil, err
	}
	techs := make([]core.Technique, len(mt.shards))
	for i, ss := range mt.shards {
		ss.mu.Lock()
		techs[i] = ss.current
		ss.mu.Unlock()
	}
	return techs, nil
}

func (p *Planner) lookup(table string) (*managedTable, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tables {
		if t.Name == table {
			return t, nil
		}
	}
	return nil, fmt.Errorf("planner: unknown table %q", table)
}

// swapShard runs the prepare → install → drain lifecycle for every
// replica of one shard. Caller holds ss.mu. On a build failure nothing is
// installed: the incumbent keeps serving and the error is surfaced (and
// counted).
func (p *Planner) swapShard(t *managedTable, ss *shardState, tech core.Technique) error {
	start := time.Now()
	// Prepare: build every replica's fresh representation up front, off
	// the serving path. All-or-nothing per shard — a half-swapped replica
	// set would split one shard across techniques.
	fresh := make([]core.Generator, len(ss.replicas))
	for i := range fresh {
		g, err := t.Build(ss.idx, tech)
		if err != nil {
			p.mBuildErr.Inc()
			return fmt.Errorf("planner: building %s replica %d for table %q shard %d: %w",
				tech.Key(), i, t.Name, ss.idx, err)
		}
		fresh[i] = g
	}
	p.mPrepareNs.ObserveDuration(time.Since(start))
	// Install + drain, replica by replica: each Install returns only when
	// the replica's in-flight batches on the old generator have finished.
	for i, sw := range ss.replicas {
		sw.Install(fresh[i])
	}
	ss.current = tech
	ss.lastSwap = time.Now()
	ss.gActive.Set(int64(tech))
	p.mSwap.Inc()
	c, ok := ss.cSwapTech[tech]
	if !ok {
		c = p.cfg.Reg.Counter("planner_swap_tech_total",
			obs.LabelTable, t.Name, obs.LabelShard, strconv.Itoa(ss.idx), obs.LabelTech, tech.Key())
		ss.cSwapTech[tech] = c
	}
	c.Inc()
	return nil
}

// ExportCostModel snapshots every fitted EWMA stream — the observed
// per-(shard, technique) latency/batch curves — stamped with this
// machine's fingerprint, for persisting via profile.SaveCostModelFile.
// Entries are sorted for deterministic output.
func (p *Planner) ExportCostModel() profile.CostModel {
	p.mu.Lock()
	defer p.mu.Unlock()
	var entries []profile.CostEntry
	for k, st := range p.sampler.state {
		if !st.sig.Observed() {
			continue
		}
		entries = append(entries, profile.CostEntry{
			Shard:     k.shard,
			Tech:      k.tech.Key(),
			EWMANs:    st.sig.EWMANs,
			EWMABatch: st.sig.EWMABatch,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Shard != entries[j].Shard {
			return entries[i].Shard < entries[j].Shard
		}
		return entries[i].Tech < entries[j].Tech
	})
	return profile.NewCostModel(entries)
}

// SeedCostModel pre-loads persisted EWMAs into the sampler so the first
// re-plan decision predicts from yesterday's observed curves instead of
// the analytic priors. Call before Start; the caller is responsible for
// fingerprint discipline (profile.InstallCostModelFile skips mismatched
// files). Entries naming unknown techniques are ignored.
func (p *Planner) SeedCostModel(m profile.CostModel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range m.Entries {
		tech, err := core.ParseTechnique(e.Tech)
		if err != nil {
			continue
		}
		p.sampler.seed(tech, e.Shard, e.EWMANs, e.EWMABatch)
	}
}
