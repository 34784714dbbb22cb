// Package cache implements a set-associative last-level-cache simulator and
// the eviction-set side-channel attack of the paper's §III: an attacker who
// shares the LLC with a victim embedding lookup recovers the secret table
// index from per-set probe latencies (Figure 3).
//
// The paper demonstrates the attack on a real Ice Lake Xeon with
// PRIME+SCOPE inside SGX; here the same protocol runs against a simulated
// LLC. The simulator models exactly what the attack needs — set-indexed
// placement, LRU replacement, and hit/miss latency — and nothing more.
package cache

import "fmt"

// Line is a cache-line address: the unit of placement. Real attacks work at
// line granularity, and the paper notes every embedding row spans at least
// one line (§III-A2), so line-granularity recovery reveals the row index.
type Line int64

// Config sizes the simulated cache and its latency model.
type Config struct {
	Sets       int // number of cache sets (power of two in real caches; any positive value here)
	Ways       int // associativity
	HitCycles  int // latency of a hit
	MissCycles int // latency of a miss
}

// DefaultConfig is a small LLC slice: 1024 sets × 8 ways, with the
// conventional ~10/~100 cycle hit/miss costs.
func DefaultConfig() Config {
	return Config{Sets: 1024, Ways: 8, HitCycles: 10, MissCycles: 100}
}

// Cache is a set-associative cache with per-set LRU replacement.
type Cache struct {
	cfg  Config
	sets [][]Line // sets[s] is LRU-ordered: front = least recent
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	sets := make([][]Line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]Line, 0, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets}
}

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr Line) int {
	s := int(addr % Line(c.cfg.Sets))
	if s < 0 {
		s += c.cfg.Sets
	}
	return s
}

// Access touches addr, updating replacement state, and returns the access
// latency in cycles (hit or miss cost).
func (c *Cache) Access(addr Line) int {
	s := c.SetIndex(addr)
	set := c.sets[s]
	for i, l := range set {
		if l == addr {
			// Hit: move to MRU position.
			copy(set[i:], set[i+1:])
			set[len(set)-1] = addr
			return c.cfg.HitCycles
		}
	}
	if len(set) == c.cfg.Ways {
		// Evict LRU (front).
		copy(set, set[1:])
		set[len(set)-1] = addr
	} else {
		c.sets[s] = append(set, addr)
	}
	return c.cfg.MissCycles
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }
