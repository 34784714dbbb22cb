package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// cached reports whether addr is in its set, without touching LRU state.
func cached(c *Cache, addr Line) bool {
	return slices.Contains(c.sets[c.SetIndex(addr)], addr)
}

func TestAccessHitMiss(t *testing.T) {
	c := New(Config{Sets: 4, Ways: 2, HitCycles: 1, MissCycles: 50})
	if lat := c.Access(0); lat != 50 {
		t.Fatalf("cold access latency %d, want miss", lat)
	}
	if lat := c.Access(0); lat != 1 {
		t.Fatalf("warm access latency %d, want hit", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 2, HitCycles: 1, MissCycles: 50})
	c.Access(0)
	c.Access(1)
	c.Access(0) // 0 becomes MRU; LRU is 1
	c.Access(2) // evicts 1
	if !cached(c, 0) || !cached(c, 2) || cached(c, 1) {
		t.Fatal("LRU eviction order wrong")
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := New(Config{Sets: 8, Ways: 1, HitCycles: 1, MissCycles: 2})
	if c.SetIndex(0) != 0 || c.SetIndex(9) != 1 || c.SetIndex(16) != 0 {
		t.Fatal("SetIndex mapping wrong")
	}
	// Different sets never interfere.
	c.Access(0)
	c.Access(1)
	if !cached(c, 0) || !cached(c, 1) {
		t.Fatal("cross-set interference")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Sets: 0, Ways: 1})
}

// newDemoVictim builds the paper's §III demo: 256-entry table, dim 64
// float32 = 4 lines/row.
func newDemoVictim() *Victim {
	return &Victim{
		Base:        0,
		NumRows:     256,
		LinesPerRow: 4,
		Cache:       New(DefaultConfig()),
	}
}

func TestAttackRecoversIndex(t *testing.T) {
	v := newDemoVictim()
	a := NewAttacker(v, 25) // paper primes 25 sets
	for _, secret := range []int{0, 2, 7, 13, 24} {
		m := a.Run(secret, 10, 0, v.Lookup, nil)
		if got := m.Guess(); got != secret {
			t.Fatalf("attack failed: guessed %d, victim index %d (latencies %v)",
				got, secret, m.Latency)
		}
	}
}

func TestAttackVictimSetLatencyElevated(t *testing.T) {
	// Figure 3's shape: the victim's set shows a clearly longer probe
	// latency than every other set.
	v := newDemoVictim()
	a := NewAttacker(v, 25)
	const secret = 2
	m := a.Run(secret, 10, 0, v.Lookup, nil)
	for r, lat := range m.Latency {
		if r == secret {
			continue
		}
		if m.Latency[secret] <= lat {
			t.Fatalf("set %d latency %v not below victim set %v", r, lat, m.Latency[secret])
		}
	}
}

func TestAttackSurvivesNoise(t *testing.T) {
	v := newDemoVictim()
	a := NewAttacker(v, 25)
	rng := rand.New(rand.NewSource(99))
	m := a.Run(5, 10, 64, v.Lookup, rng)
	if got := m.Guess(); got != 5 {
		t.Fatalf("attack with noise guessed %d, want 5", got)
	}
}

func TestLinearScanDefeatsAttack(t *testing.T) {
	// Against the protected victim, every monitored set sees the same
	// probe latency: the measurement carries no information about the
	// secret (the "attack closure" property from DESIGN.md §4).
	v := newDemoVictim()
	a := NewAttacker(v, 25)
	m1 := a.Run(2, 10, 0, v.LinearScan, nil)
	m2 := a.Run(19, 10, 0, v.LinearScan, nil)
	for r := range m1.Latency {
		if m1.Latency[r] != m1.Latency[0] {
			t.Fatalf("linear-scan latencies not flat: %v", m1.Latency)
		}
		if m1.Latency[r] != m2.Latency[r] {
			t.Fatalf("linear-scan latencies depend on secret: %v vs %v", m1.Latency, m2.Latency)
		}
	}
}

func TestVictimLookupPanicsOutOfRange(t *testing.T) {
	v := newDemoVictim()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Lookup(256)
}

func TestAttackerMonitorClamped(t *testing.T) {
	v := &Victim{Base: 0, NumRows: 3, LinesPerRow: 1, Cache: New(DefaultConfig())}
	a := NewAttacker(v, 100)
	if a.monitored != 3 {
		t.Fatalf("monitored=%d, want clamped to 3", a.monitored)
	}
}

func TestEvictionSetsMapToTargetSets(t *testing.T) {
	v := newDemoVictim()
	a := NewAttacker(v, 10)
	for r, set := range a.evictionSets {
		want := v.Cache.SetIndex(v.Base + Line(r*v.LinesPerRow))
		if len(set) != v.Cache.Config().Ways {
			t.Fatalf("row %d eviction set size %d", r, len(set))
		}
		for _, l := range set {
			if v.Cache.SetIndex(l) != want {
				t.Fatalf("row %d line %d maps to set %d, want %d", r, l, v.Cache.SetIndex(l), want)
			}
		}
	}
}
