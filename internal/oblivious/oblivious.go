// Package oblivious provides branchless, constant-flow primitives — the Go
// analogue of the paper's cmov/AVX-512 blend building blocks (§V-A).
//
// Every function in this package is written so that its sequence of memory
// accesses and its control flow are independent of the *values* of its
// secret operands; only the (public) lengths of slices affect the work done.
// Secrets influence results exclusively through masked integer arithmetic.
//
// The paper hardens its implementations at the ISA level (cmov, AVX masks).
// Go gives no such guarantee, so this repository instead *verifies* the
// property these primitives are meant to deliver: internal/memtrace
// instruments the block-granular access pattern of every secure embedding
// generator and the tests assert the trace is identical for all secret
// inputs. These primitives make that property hold by construction at the
// algorithm level. The exceptions are the hot loops of OrTile and
// ScanBlock, which on amd64 with AVX2 are hand-written assembly;
// obliviouslint's asm rule checks their branches, addresses and vector
// instructions instead.
package oblivious

import "math"

// HasAVX2 reports whether this build runs AVX2 kernels: true on amd64,
// without the purego tag, when the CPU and the OS support AVX2. Packages
// with their own AVX2 kernels (internal/tensor's quantized matmul) gate on
// it, so there is one CPUID check in the module.
func HasAVX2() bool { return hasAVX2 }

// Mask64 converts a boolean condition into an all-ones/all-zeros 64-bit
// mask. The conversion from bool goes through a 0/1 integer; no secret-
// dependent branch is introduced by the compiler for this pattern.
func Mask64(cond bool) uint64 {
	var b uint64
	if cond { // branch on the *public representation* produced by callers
		b = 1
	}
	return -b // 0 → 0x000..0, 1 → 0xFFF..F
}

// Eq returns an all-ones mask when a == b and zero otherwise, without
// branching on the comparison.
// secemb:secret a b return
func Eq(a, b uint64) uint64 {
	x := a ^ b
	// (x-1) has its top bit set only when x == 0 (wrap-around) or when x
	// already had the top bit clear but borrowed; AND with ^x clears the
	// latter case.
	return -(((x - 1) &^ x) >> 63)
}

// Select64 returns a when mask is all-ones and b when mask is zero.
// secemb:secret mask a b return
func Select64(mask, a, b uint64) uint64 {
	return (a & mask) | (b &^ mask)
}

// Select32f returns a when mask is all-ones and b when mask is zero,
// operating on the raw bit patterns of the float32 operands.
// secemb:secret mask a b return
func Select32f(mask uint32, a, b float32) float32 {
	ab := math.Float32bits(a)
	bb := math.Float32bits(b)
	return math.Float32frombits((ab & mask) | (bb &^ mask))
}

// CondCopy copies src into dst element-wise when mask is all-ones and
// leaves dst untouched when mask is zero; either way it reads every element
// of both slices and writes every element of dst. This is the scan-side
// "AVX blend" of the paper's linear scan (§V-A2). dst and src must have
// equal length.
//
// The blend works on the raw bits as d ^= (d^s)&m, which equals
// (s&m)|(d&^m) bit for bit for every mask value, not only all-ones and
// zero. src is resliced to len(dst) and the loop takes four elements per
// step, so bounds are checked once per step rather than once per element;
// the 0–3-element tail is resliced once and runs unchecked.
// secemb:secret mask dst src
func CondCopy(mask uint64, dst, src []float32) {
	m := uint32(mask)
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d0, d1, d2, d3 := math.Float32bits(d[0]), math.Float32bits(d[1]), math.Float32bits(d[2]), math.Float32bits(d[3])
		d[0] = math.Float32frombits(d0 ^ (d0^math.Float32bits(s[0]))&m)
		d[1] = math.Float32frombits(d1 ^ (d1^math.Float32bits(s[1]))&m)
		d[2] = math.Float32frombits(d2 ^ (d2^math.Float32bits(s[2]))&m)
		d[3] = math.Float32frombits(d3 ^ (d3^math.Float32bits(s[3]))&m)
	}
	dst, src = dst[i:], src[i:]
	for j := range dst {
		d := math.Float32bits(dst[j])
		dst[j] = math.Float32frombits(d ^ (d^math.Float32bits(src[j]))&m)
	}
}

// CondCopy64 is CondCopy for uint64 words (ORAM payloads, two packed
// uint32 elements per word), with the same blend and the same four-word
// steps. src must be at least as long as dst.
// secemb:secret mask dst src
func CondCopy64(mask uint64, dst, src []uint64) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] ^= (d[0] ^ s[0]) & mask
		d[1] ^= (d[1] ^ s[1]) & mask
		d[2] ^= (d[2] ^ s[2]) & mask
		d[3] ^= (d[3] ^ s[3]) & mask
	}
	dst, src = dst[i:], src[i:]
	for j := range dst {
		dst[j] ^= (dst[j] ^ src[j]) & mask
	}
}

// OrTile ORs t0&m0 | t1&m1 | t2&m2 | t3&m3 into a: the four-row tile that
// Circuit ORAM's read phase (internal/oram) accumulates with. Every t must
// be at least as long as a.
// Starting from a zeroed a, with at most one all-ones mask across all the
// tiles a sees, the OR equals CondCopy's d ^= (d^s)&m bit for bit.
//
// On amd64 CPUs with AVX2 (detected once, at package init) the largest
// multiple-of-four prefix runs in an assembly kernel, ortile_amd64.s, that
// broadcasts each mask into a vector register and blends four words per
// VPAND/VPOR; the scalar loop, orTileScalar, runs the 0–3-word tail, and
// the whole tile on other architectures and CPUs. Both read and write
// every word whatever the masks, and their results agree bit for bit. The
// kernel carries this function's secemb:secret list, and obliviouslint's
// asm rule checks that its only conditional jump is the loop back-edge on
// the public length, that no general-purpose register holds a mask, and
// that it addresses memory only from its pointer arguments and the loop
// counter.
//
// secemb:secret a m0 m1 m2 m3
func OrTile(a, t0, t1, t2, t3 []uint64, m0, m1, m2, m3 uint64) {
	n := len(a)
	t0, t1, t2, t3 = t0[:n], t1[:n], t2[:n], t3[:n]
	k := 0
	if hasAVX2 {
		k = n &^ 3
	}
	// The tail goes first so that nothing is live across the kernel call.
	if k < n {
		orTileScalar(a[k:], t0[k:], t1[k:], t2[k:], t3[k:], m0, m1, m2, m3)
	}
	if k > 0 {
		orTileAVX2(&a[0], &t0[0], &t1[0], &t2[0], &t3[0], k, m0, m1, m2, m3)
	}
}

// orTileScalar is OrTile in portable Go, two words per step, the tests'
// reference for the kernel, and scanBlockScalar's blend. It is a call, not
// inlined, because inside the scans' nested loops the compiler spills these
// operands to the stack: on a 2 GHz Xeon (amd64, Go 1.24), 4 096 rows × 32
// words at batch 8 took ≈ 470 µs inlined one word per step, ≈ 415 µs
// inlined two per step and ≈ 345 µs as a call.
//
// secemb:secret a m0 m1 m2 m3
func orTileScalar(a, t0, t1, t2, t3 []uint64, m0, m1, m2, m3 uint64) {
	n := len(a)
	t0, t1, t2, t3 = t0[:n], t1[:n], t2[:n], t3[:n]
	for j := 1; j < n; j += 2 {
		a[j-1] |= t0[j-1]&m0 | t1[j-1]&m1 | t2[j-1]&m2 | t3[j-1]&m3
		a[j] |= t0[j]&m0 | t1[j]&m1 | t2[j]&m2 | t3[j]&m3
	}
	if j := n - 1; n%2 == 1 {
		a[j] |= t0[j]&m0 | t1[j]&m1 | t2[j]&m2 | t3[j]&m3
	}
}

// ScanBlock ORs, for every query q, each row of the block words that
// holds ids[q] into acc[q*width:(q+1)*width]: the block is rows of width
// words numbered from r0, and row r0+i is ANDed with Eq(r0+i, ids[q]) and
// ORed in. acc must hold len(ids)*width words and width must be positive;
// a partial row at the end of words is ignored. Calling it once per block
// over a zeroed acc is the packed-word linear scan of internal/core:
// with exactly one matching row per id, the OR equals CondCopy's
// d ^= (d^s)&m bit for bit. Every (row, query, word) is read and masked,
// and addresses and control flow depend only on len(words), width and
// len(ids).
//
// On amd64 CPUs with AVX2 each query's first width&^3 words per row run in
// an assembly kernel, scanBlockAVX2 in ortile_amd64.s, that makes each
// row's mask in vector registers from the id and a row counter, keeps its
// accumulators in registers across the block, and blends sixteen, then
// four, words per row step; scanBlockScalar runs the 0–3-word tail, and
// every word on other architectures, under the purego tag and on CPUs
// without AVX2. Their results agree bit for bit. obliviouslint's asm rule
// audits the kernel as it does OrTile's.
//
// On a 2-vCPU Xeon VM (amd64, Go 1.24), alternating builds, the batched
// scan over 4 096 rows × 32 words at batch 8 took ≈ 186 µs through this
// function against ≈ 352 µs through a per-tile OrTile loop (×0.53), and
// ≈ 810 µs on the portable path alone.
//
// secemb:secret acc ids
func ScanBlock(acc, words, ids []uint64, width, r0 int) {
	n := len(words) / width * width
	words, acc = words[:n], acc[:len(ids)*width]
	k := 0
	if hasAVX2 && n > 0 {
		k = width &^ 3
	}
	// The tail goes first so that nothing is live across the kernel calls.
	if k < width {
		scanBlockScalar(acc, words, ids, width, r0, k)
	}
	if k > 0 {
		for q := range ids {
			scanBlockAVX2(&acc[q*width], &words[0], &ids[q], width, width&^15, k, r0, n)
		}
	}
}

// scanBlockScalar is ScanBlock in portable Go over words [lo, width) of
// each row, and the tests' reference for the kernel. It blends four rows
// per orTileScalar call, which loads and stores each accumulator word once
// per tile; a final tile short of four rows repeats the block's last row
// under mask 0, since the numbers past the block may be ids of the next.
//
// secemb:secret acc ids
func scanBlockScalar(acc, words, ids []uint64, width, r0, lo int) {
	nrows := len(words) / width
	for q, id := range ids {
		a := acc[q*width+lo : (q+1)*width]
		for i := 0; i < nrows; i += 4 {
			var t [4][]uint64
			var m [4]uint64
			for k := range t {
				r := min(i+k, nrows-1)
				t[k] = words[r*width+lo : (r+1)*width]
				m[k] = Eq(uint64(r0+i+k), id) & Mask64(i+k < nrows)
			}
			orTileScalar(a, t[0], t[1], t[2], t[3], m[0], m[1], m[2], m[3])
		}
	}
}

// Max returns max(a, b) branchlessly for float32 — the paper's secure
// ReLU building block (ReLU(x) = max(0, x) via AVX, §V-A3).
// secemb:secret a b return
func Max(a, b float32) float32 {
	// ltMask is all-ones when a < b. Comparing float bits directly is
	// wrong for floats, so derive the mask from the arithmetic sign of
	// the difference; NaNs are out of scope for model activations.
	d := a - b
	sign := uint32(math.Float32bits(d)) >> 31 // 1 when d < 0 (a < b)
	mask := -sign                             // all-ones when a < b
	return Select32f(mask, b, a)
}

// ReLU applies max(0, x) to every element of x in place, branchlessly.
// secemb:secret x
func ReLU(x []float32) {
	for i, v := range x {
		x[i] = Max(v, 0)
	}
}

// ArgMax returns the index of the maximum element of x using a linear scan
// that obliviously carries the running maximum and its index — the paper's
// secure greedy-sampling argmax for LLM logits (§V-C). Access pattern and
// control flow are independent of the values in x. Ties resolve to the
// lowest index. Panics on empty input.
// secemb:secret x return
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("oblivious: ArgMax of empty slice")
	}
	best := x[0]
	bestIdx := uint64(0)
	for i := 1; i < len(x); i++ {
		v := x[i]
		d := best - v
		sign := math.Float32bits(d) >> 31 // 1 when best < v
		mask := -uint64(sign)             // all-ones when best < v
		best = Select32f(uint32(mask), v, best)
		bestIdx = Select64(mask, uint64(i), bestIdx)
	}
	return int(bestIdx)
}

// LookupScan returns row `index` of a table with `rows` rows of width
// `width`, laid out contiguously in data, by scanning the *entire* table
// and blending the matching row into out. This is the core of the secure
// linear scan (§IV-A1): every row is read on every call regardless of the
// secret index. out must have length width.
// secemb:secret index out
func LookupScan(data []float32, rows, width int, index uint64, out []float32) {
	for r := 0; r < rows; r++ {
		mask := Eq(uint64(r), index)
		CondCopy(mask, out, data[r*width:(r+1)*width])
	}
}

// Select64f returns a when mask is all-ones and b when mask is zero,
// operating on the raw bit patterns of the float64 operands.
//
// secemb:secret mask a b return
func Select64f(mask uint64, a, b float64) float64 {
	ab := math.Float64bits(a)
	bb := math.Float64bits(b)
	return math.Float64frombits((ab & mask) | (bb &^ mask))
}

// Max64d returns max(a, b) branchlessly for float64, deriving the select
// mask from the arithmetic sign of the difference (like Max); NaNs are out
// of scope for model activations.
//
// secemb:secret a b return
func Max64d(a, b float64) float64 {
	d := a - b
	mask := -(math.Float64bits(d) >> 63) // all-ones when a < b
	return Select64f(mask, b, a)
}

// Min64d returns min(a, b) branchlessly for float64.
//
// secemb:secret a b return
func Min64d(a, b float64) float64 {
	d := b - a
	mask := -(math.Float64bits(d) >> 63) // all-ones when b < a
	return Select64f(mask, b, a)
}

// Clamp64d clamps x into [lo, hi] branchlessly (lo and hi are public
// bounds; the clamped value's magnitude never surfaces as control flow).
//
// secemb:secret x return
func Clamp64d(x, lo, hi float64) float64 {
	return Min64d(Max64d(x, lo), hi)
}
