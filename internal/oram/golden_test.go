package oram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"secemb/internal/memtrace"
)

// traceHash hashes every access it is given, in order: region name, block
// and op. Dropping, reordering or renaming a single touch changes the sum.
type traceHash struct {
	h hash.Hash
	n int
}

func newTraceHash() *traceHash { return &traceHash{h: sha256.New()} }

func (d *traceHash) add(tr memtrace.Trace) {
	var rec [9]byte
	for _, a := range tr {
		d.h.Write([]byte(a.Region))
		d.h.Write([]byte{0})
		binary.LittleEndian.PutUint64(rec[:8], uint64(a.Block))
		rec[8] = byte(a.Op)
		d.h.Write(rec[:])
	}
	d.n += len(tr)
}

func (d *traceHash) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

func traceDigest(tr memtrace.Trace) string {
	d := newTraceHash()
	d.add(tr)
	return d.sum()
}

// statsDigest hashes every Stats field by name and value.
func statsDigest(s Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return hex.EncodeToString(sum[:12])
}

// goldenRun replays a fixed-seed mix of Read, Write and Update on a traced
// controller, hands the trace of each operation to sink (construction
// excluded) and returns the final counters.
func goldenRun(mk func(Config) *Controller, cfg Config, ops int, sink func(memtrace.Trace)) Stats {
	tracer := memtrace.NewEnabled()
	cfg.Tracer, cfg.Region = tracer, "o"
	o := mk(cfg)
	tracer.Reset()
	rng := rand.New(rand.NewSource(99))
	words := make([]uint32, cfg.BlockWords)
	for i := 0; i < ops; i++ {
		id := uint64(rng.Intn(cfg.NumBlocks))
		switch rng.Intn(3) {
		case 0:
			o.Read(id)
		case 1:
			words[0] = uint32(i)
			write(o, id, words)
		default:
			o.Update(id, func(d []uint32) { d[0]++ })
		}
		sink(tracer.Snapshot())
		tracer.Reset()
	}
	return *o.Stats()
}

// TestTraceAndStatsGolden pins what an attacker sees and what the cost
// model is fed: the digests below must not move with any optimisation of
// the access path or of construction. They cover both schemes at
// recursion depths 0, 1 and 2, including the nested ".pmN" region names.
// A legitimate protocol change updates them and says why. They were last
// re-recorded when leaves moved from math/rand's seeded source to ChaCha8
// keyed by Config.Seed: every leaf changed, so every path and the
// counters that follow real blocks (WordsMoved, MaxStash) did too.
func TestTraceAndStatsGolden(t *testing.T) {
	cases := []struct {
		name        string
		mk          func(Config) *Controller
		cfg         Config
		depth, ops  int
		trace, stat string
	}{
		{"circuit-depth1", NewCircuit, Config{NumBlocks: 1 << 13, BlockWords: 2, Seed: 1}, 1, 300,
			"d6952df40e121e85cf09ce8b", "fdd9d8d380e5b454cbe14a35"},
		{"circuit-depth2", NewCircuit, Config{NumBlocks: 1 << 13, BlockWords: 2, Seed: 1, RecursionCutoff: 256}, 2, 300,
			"2737f94c6cbfa67f8e7412c8", "e2667019c571174b50d6b68f"},
		{"path-flat", NewPath, Config{NumBlocks: 1024, BlockWords: 2, Seed: 1}, 0, 100,
			"55016de2fd5ae6df659e2952", "2754917dcce3b1fbf752ec57"},
		{"path-depth2", NewPath, Config{NumBlocks: 2048, BlockWords: 1, Seed: 6, RecursionCutoff: 64}, 2, 100,
			"dd2f14ee7cdaa9220e0cc4ae", "50d4d789e5ebab4560ca199b"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newTraceHash()
			st := goldenRun(c.mk, c.cfg, c.ops, d.add)
			if got := c.mk(c.cfg).RecursionDepth(); got != c.depth {
				t.Fatalf("recursion depth %d, want %d", got, c.depth)
			}
			if got := d.sum(); got != c.trace {
				t.Errorf("trace digest %s, want %s (%d accesses)", got, c.trace, d.n)
			}
			if got := statsDigest(st); got != c.stat {
				t.Errorf("stats digest %s, want %s (%+v)", got, c.stat, st)
			}
		})
	}
}

// TestTraceDigestTeeth: the digest distinguishes a trace from the same
// trace with one touch dropped, two touches swapped or one region renamed.
func TestTraceDigestTeeth(t *testing.T) {
	var tr memtrace.Trace
	goldenRun(NewCircuit, Config{NumBlocks: 64, BlockWords: 1, Seed: 1}, 5, func(op memtrace.Trace) { tr = append(tr, op...) })
	base := traceDigest(tr)
	mid := len(tr) / 2
	dropped := append(append(memtrace.Trace{}, tr[:mid]...), tr[mid+1:]...)
	swapped := append(memtrace.Trace{}, tr...)
	for j := mid + 1; j < len(swapped); j++ {
		if swapped[j] != swapped[mid] {
			swapped[mid], swapped[j] = swapped[j], swapped[mid]
			break
		}
	}
	renamed := append(memtrace.Trace{}, tr...)
	renamed[mid].Region += "x"
	for name, m := range map[string]memtrace.Trace{"dropped": dropped, "swapped": swapped, "renamed": renamed} {
		if traceDigest(m) == base {
			t.Errorf("digest blind to a %s touch", name)
		}
	}
}
