package oram

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// fuzzN is FuzzORAMOps' block count: 19 posmap blocks one level down, 2
// two levels down.
const fuzzN = 300

// fuzzSeeds is FuzzORAMOps' seed corpus. The last entry's Z = 1 tree sends
// one block past its root at construction, so bulkLoad's stash spill runs
// on every go test (TestFuzzSeedsSpill); at this size a seed spills about
// once in 10⁵.
var fuzzSeeds = []struct {
	seed            int64
	z, words, depth uint8
	prog            []byte
}{
	{1, 3, 4, 0, []byte("\x01\x05\x00\x00\x05\x00\x02\x05\x00\x00\x05\x00")},
	{2, 4, 6, 1, []byte("write, update and read back")},
	{3, 0, 8, 2, bytes.Repeat([]byte{0x01, 0xff, 0x00, 0x02, 0x80, 0x01}, 40)},
	{8325, 0, 4, 1, []byte("spilled at build")},
}

// fuzzConfig is the Config FuzzORAMOps builds from its inputs.
func fuzzConfig(seed int64, z, words, depth uint8) Config {
	return Config{
		NumBlocks:       fuzzN,
		BlockWords:      1 + int(words%9),
		Z:               1 + int(z%6),
		StashSize:       200, // room for Z = 1, which the paper's stash sizes do not target
		RecursionCutoff: [...]int{-1, 19, 2}[depth%3],
		Seed:            seed,
	}
}

// FuzzORAMOps runs seeded programs of Read, Write and Update on both
// schemes against a reference: bucket sizes Z 1–6 (read-phase tiles with
// 1–3-slot tails, and two tiles per bucket above Z = 4), payload widths
// 1–9 (the odd packing tail), recursion depth 0–2, and payloads of
// arbitrary 32-bit patterns, the high bit and all-ones included. seed
// draws every block's initial payload, which the Init constructors pack
// at construction and a read of every block checks before the program
// runs; the program bytes then pick each operation and its id, and seed
// draws the payloads written. Afterwards every block reads back its
// reference payload, and every level still keeps the path invariant and
// holds each of its blocks exactly once.
func FuzzORAMOps(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, s.z, s.words, s.depth, s.prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, z, words, depth uint8, prog []byte) {
		cfg := fuzzConfig(seed, z, words, depth)
		rng := rand.New(rand.NewSource(seed))
		value := func() uint32 {
			switch rng.Intn(4) {
			case 0:
				return ^uint32(0)
			case 1:
				return 1<<31 | rng.Uint32()
			default:
				return rng.Uint32()
			}
		}
		init := make([][]uint32, fuzzN)
		for id := range init {
			init[id] = make([]uint32, cfg.BlockWords)
			for i := range init[id] {
				init[id][i] = value()
			}
		}
		for _, m := range makers {
			o := m.mkInit(cfg, func(id int, words []uint32) { copy(words, init[id]) })
			if got := o.RecursionDepth(); got != int(depth%3) {
				t.Fatalf("%s: recursion depth %d, want %d", m.name, got, depth%3)
			}
			ref := slices.Clone(init)
			for id, want := range ref {
				if got := o.Read(uint64(id)); !slices.Equal(got, want) {
					t.Fatalf("%s %+v: initial Read(%d) = %#x, want %#x", m.name, cfg, id, got, want)
				}
			}
			for p, op := prog, 0; len(p) >= 3 && op < 256; p, op = p[3:], op+1 {
				id := uint64(binary.LittleEndian.Uint16(p[1:])) % fuzzN
				switch p[0] % 3 {
				case 0:
					if got := o.Read(id); !slices.Equal(got, ref[id]) {
						t.Fatalf("%s %+v op %d: Read(%d) = %#x, want %#x", m.name, cfg, op, id, got, ref[id])
					}
				case 1:
					data := make([]uint32, cfg.BlockWords)
					for i := range data {
						data[i] = value()
					}
					write(o, id, data)
					ref[id] = data
				default:
					x := value()
					step := func(d []uint32) {
						for i := range d {
							d[i] = bits.RotateLeft32(d[i], 7) ^ x
						}
					}
					next := slices.Clone(ref[id])
					step(next)
					o.Update(id, step)
					ref[id] = next
				}
			}
			for id, want := range ref {
				if got := o.Read(uint64(id)); !slices.Equal(got, want) {
					t.Fatalf("%s %+v: final Read(%d) = %#x, want %#x", m.name, cfg, id, got, want)
				}
			}
			for _, c := range controllers(o) {
				checkTreeInvariant(t, c.tree)
				checkExactlyOnce(t, c)
			}
		}
	})
}

// TestFuzzSeedsSpill: some FuzzORAMOps seed really spills a block into the
// stash at construction. Both schemes draw the same leaves from one seed
// and Config, so checking Path ORAM's hierarchy covers Circuit's too.
func TestFuzzSeedsSpill(t *testing.T) {
	for _, s := range fuzzSeeds {
		for _, c := range controllers(NewPath(fuzzConfig(s.seed, s.z, s.words, s.depth))) {
			if c.stash.occupancy() > 0 {
				return
			}
		}
	}
	t.Fatal("no FuzzORAMOps seed spills a block into the stash at construction")
}

// TestPackWordsRoundTrip pins the payload layout: element 2j in the low
// half of word j, 2j+1 in the high half, an odd width's last high half
// zero, and unpacking inverts packing.
func TestPackWordsRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 17} {
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(i+1)*0x9e3779b9 | 1<<31
		}
		src[n-1] = ^uint32(0)
		w := make([]uint64, packedWidth(n))
		for i := range w {
			w[i] = ^uint64(0) // packing must overwrite every bit, padding included
		}
		packWords(w, src)
		for j, x := range w {
			hi := uint32(0)
			if 2*j+1 < n {
				hi = src[2*j+1]
			}
			if uint32(x) != src[2*j] || uint32(x>>32) != hi {
				t.Fatalf("width %d: word %d = %#x, want low %#x high %#x", n, j, x, src[2*j], hi)
			}
		}
		got := make([]uint32, n)
		unpackWords(got, w)
		if !slices.Equal(got, src) {
			t.Fatalf("width %d: round trip %#x, want %#x", n, got, src)
		}
	}
}
