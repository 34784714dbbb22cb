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

// TestScanBlockMatchesScalar runs ScanBlock (the AVX2 kernel plus the
// scalar tail on AVX2 hosts) and scanBlockScalar block by block over the
// same tables, onto the same nonzero accumulators, for every width 1–40
// (each residue mod 4 and mod 16), blocks of 1, 3 and 4 rows, tables of
// one block, two blocks and two blocks plus a partial one numbered from
// row 5, and batches of 0, 1, 8 and 64 ids that hit each block's first and
// last row, miss the table on both sides and repeat, and requires the two
// to agree bit for bit with each other and with the one-line reference.
func TestScanBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const r0 = 5
	for width := 1; width <= 40; width++ {
		for _, nrows := range []int{1, 3, 4} {
			for _, rows := range []int{nrows, 2 * nrows, 3*nrows - 1} {
				words := make([]uint64, rows*width)
				for i := range words {
					words[i] = rng.Uint64()
				}
				edges := []uint64{r0, r0 + uint64(nrows) - 1, r0 + uint64(nrows), r0 + uint64(rows) - 1,
					r0 - 1, r0 + uint64(rows), r0, r0 + uint64(rows) - 1}
				for _, nids := range []int{0, 1, 8, 64} {
					ids := make([]uint64, nids)
					for i := range ids {
						ids[i] = r0 - 2 + uint64(rng.Intn(rows+4))
						if i < len(edges) {
							ids[i] = edges[i]
						}
					}
					acc0 := make([]uint64, nids*width)
					for i := range acc0 {
						acc0[i] = rng.Uint64() & rng.Uint64()
					}
					want := append([]uint64(nil), acc0...)
					for q, id := range ids {
						for r := 0; r < rows; r++ {
							if id == uint64(r0+r) {
								for j := 0; j < width; j++ {
									want[q*width+j] |= words[r*width+j]
								}
							}
						}
					}
					got := append([]uint64(nil), acc0...)
					ref := append([]uint64(nil), acc0...)
					for b := 0; b < rows; b += nrows {
						block := words[b*width : min(b+nrows, rows)*width]
						ScanBlock(got, block, ids, width, r0+b)
						scanBlockScalar(ref, block, ids, width, r0+b, 0)
					}
					for i := range want {
						if got[i] != want[i] || ref[i] != want[i] {
							t.Fatalf("width %d, %d-row blocks, %d rows, ids %v: word %d of query %d: ScanBlock %#x, scanBlockScalar %#x, want %#x",
								width, nrows, rows, ids, i%width, i/width, got[i], ref[i], want[i])
						}
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
