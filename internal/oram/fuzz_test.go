package oram

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// FuzzORAMOps runs seeded programs of Read, Write and Update on both
// schemes against a reference map: bucket sizes Z 1–6 (read-phase tiles
// with 1–3-slot tails, and two tiles per bucket above Z = 4), payload
// widths 1–9 (the odd packing tail), recursion depth 0–2, and payloads of
// arbitrary 32-bit patterns, the high bit and all-ones included. The
// program bytes pick each operation and its id; seed draws the payloads.
// Afterwards every level still keeps the path invariant and holds each of
// its blocks exactly once.
func FuzzORAMOps(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(0), []byte("\x01\x05\x00\x00\x05\x00\x02\x05\x00\x00\x05\x00"))
	f.Add(int64(2), uint8(4), uint8(6), uint8(1), []byte("write, update and read back"))
	f.Add(int64(3), uint8(0), uint8(8), uint8(2), bytes.Repeat([]byte{0x01, 0xff, 0x00, 0x02, 0x80, 0x01}, 40))
	f.Fuzz(func(t *testing.T, seed int64, z, words, depth uint8, prog []byte) {
		const n = 300 // 19 posmap blocks one level down, 2 two levels down
		cfg := Config{
			NumBlocks:       n,
			BlockWords:      1 + int(words%9),
			Z:               1 + int(z%6),
			StashSize:       200, // room for Z = 1, which the paper's stash sizes do not target
			RecursionCutoff: [...]int{-1, 19, 2}[depth%3],
			Seed:            seed,
		}
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
		for _, m := range makers {
			o := m.mk(cfg)
			if got := o.RecursionDepth(); got != int(depth%3) {
				t.Fatalf("%s: recursion depth %d, want %d", m.name, got, depth%3)
			}
			ref := map[uint64][]uint32{}
			want := func(id uint64) []uint32 {
				if v, ok := ref[id]; ok {
					return v
				}
				return make([]uint32, cfg.BlockWords)
			}
			for p, op := prog, 0; len(p) >= 3 && op < 256; p, op = p[3:], op+1 {
				id := uint64(binary.LittleEndian.Uint16(p[1:])) % n
				switch p[0] % 3 {
				case 0:
					if got := o.Read(id); !slices.Equal(got, want(id)) {
						t.Fatalf("%s %+v op %d: Read(%d) = %#x, want %#x", m.name, cfg, op, id, got, want(id))
					}
				case 1:
					data := make([]uint32, cfg.BlockWords)
					for i := range data {
						data[i] = value()
					}
					o.Write(id, data)
					ref[id] = data
				default:
					x := value()
					step := func(d []uint32) {
						for i := range d {
							d[i] = bits.RotateLeft32(d[i], 7) ^ x
						}
					}
					next := slices.Clone(want(id))
					step(next)
					o.Update(id, step)
					ref[id] = next
				}
			}
			for _, id := range slices.Sorted(maps.Keys(ref)) {
				if got := o.Read(id); !slices.Equal(got, ref[id]) {
					t.Fatalf("%s %+v: final Read(%d) = %#x, want %#x", m.name, cfg, id, got, ref[id])
				}
			}
			for _, c := range controllers(o) {
				checkTreeInvariant(t, c.tree)
				checkExactlyOnce(t, c)
			}
		}
	})
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
