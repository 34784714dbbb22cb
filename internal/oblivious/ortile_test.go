package oblivious

import (
	"math/rand"
	"testing"
)

// TestOrTileMatchesScalar runs OrTile (the AVX2 kernel plus the scalar
// tail on AVX2 hosts) and orTileScalar on the same inputs for every length
// 0–67, with every slice starting 0–3 words into its backing array, under
// zero, all-ones, one-hot-per-tile and arbitrary masks, and requires the
// two to agree bit for bit with each other and with the one-line
// reference.
func TestOrTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	words := func(k int) []uint64 {
		w := make([]uint64, k)
		for i := range w {
			w[i] = rng.Uint64()
		}
		return w
	}
	const ones = ^uint64(0)
	masks := [][4]uint64{
		{0, 0, 0, 0},
		{ones, ones, ones, ones},
		{ones, 0, 0, 0}, {0, ones, 0, 0}, {0, 0, ones, 0}, {0, 0, 0, ones},
		{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()},
		{0x8000_0000_0000_0001, 0xffff_0000_ffff_0000, 0x0f0f_0f0f_0f0f_0f0f, 1},
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, m := range masks {
				a0 := words(off + n)
				var ts [4][]uint64
				for i := range ts {
					// t may run longer than a; OrTile reads only len(a) words.
					ts[i] = words(off + n + i)[off:]
				}
				want := make([]uint64, n)
				for j := range want {
					want[j] = a0[off+j] | ts[0][j]&m[0] | ts[1][j]&m[1] | ts[2][j]&m[2] | ts[3][j]&m[3]
				}
				a := append([]uint64(nil), a0...)[off:]
				OrTile(a, ts[0], ts[1], ts[2], ts[3], m[0], m[1], m[2], m[3])
				s := append([]uint64(nil), a0...)[off:]
				orTileScalar(s, ts[0], ts[1], ts[2], ts[3], m[0], m[1], m[2], m[3])
				for j := range want {
					if a[j] != want[j] || s[j] != want[j] {
						t.Fatalf("len %d offset %d masks %#x: word %d: OrTile %#x, orTileScalar %#x, want %#x",
							n, off, m, j, a[j], s[j], want[j])
					}
				}
			}
		}
	}
}

// TestOrTileShortSourcePanics pins the contract's bounds check: a t shorter
// than a panics before any kernel runs.
func TestOrTileShortSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OrTile with a short t3 did not panic")
		}
	}()
	a, long := make([]uint64, 8), make([]uint64, 8)
	OrTile(a, long, long, long, make([]uint64, 7), 0, 0, 0, 0)
}
