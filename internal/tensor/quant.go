package tensor

import (
	"fmt"
	"math"
)

// Quantized matmul kernels for the int8 serving path.
//
// Pure-Go scalar float32 kernels bound the DHE hot path at roughly one
// multiply-add per cycle; a naive int8 kernel (widen to int32, multiply,
// accumulate) is *slower* than that on scalar CPUs because the
// widening traffic costs more than the float FMA it replaces. The
// portable kernel here instead packs four quantized values into the four
// 16-bit lanes of a uint64 and uses one 64-bit integer multiply as a
// 4-element dot product — SWAR (SIMD within a register), so the speedup
// needs no assembly and no build tags. Where AVX2 is available, a vector
// kernel computes the same integers (see "AVX2" below).
//
// Scheme. Weights are quantized per output column to 7 signed bits
// ([-63,63], scale = maxAbs/63) and offset-encoded by +64 into [1,127];
// activations are quantized per batch row to 6 signed bits ([-31,31],
// scale = maxAbs/31) and offset-encoded by +32 into [1,63]. A word of
// activations is packed forward (a0 | a1<<16 | a2<<32 | a3<<48) and a word
// of weights reversed (w3 | w2<<16 | w1<<32 | w0<<48), so the plain 64-bit
// product A*W carries the 4-element dot product Σ aᵢwᵢ in its top lane,
// bits [48,64): the product is the convolution Σ cₜ·2^16t with
// c₃ = Σ aᵢwᵢ, and no lower lane can carry into lane 3 because every
// cₜ ≤ 4·63·127 = 32004 < 2^15. The margin is deliberate — it lets the
// kernel *sum two products before the shift* (pair sums < 2^16), so eight
// multiply-accumulates cost two integer multiplies, one add and one shift.
//
// The offset encoding is corrected once per output cell: with a = a'-32,
// w = w'-64,
//
//	Σ a·w  =  Σ a'w'  −  64·Σa'  −  32·Σw'  +  2048·K
//
// where Σw' per column is precomputed at weight-quantization time, Σa' per
// row at activation-pack time, and K is the padded depth. Padding encodes
// exact zeros (a' = 32, w' = 64), so padded lanes contribute nothing.
//
// AVX2. On amd64 with AVX2 (oblivious.HasAVX2) the layer runs in vector
// registers end to end (quant_amd64.s). quantMaxAVX2 and quantBytesAVX2
// quantize each activation row to bytes a' ∈ [1,63] with the arithmetic
// of the Go loops, leaving only the lane reductions, the one scalar
// divide and a tail under eight elements to Go. quantDotsAVX2 then takes
// the same integer Σ a'w' against weights stored as s8 w' ∈ [1,127], over
// the same padded depth, so VPMADDUBSW's pair sums (≤ 2·63·127 = 16 002 <
// 2^15) never saturate, and dequantizes it and adds the bias in registers,
// in the Go epilogue's operation order and without FMA. Both kernels'
// floats are therefore bit-identical; SWAR stays the portable path
// (purego, arm64, 386) and the tests' reference.
//
// Obliviousness. Activations derive from secret feature ids, so
// quantization and the kernel inner loops are branchless and annotated
// secemb:secret: the per-row max-abs reduction uses bit tricks instead of
// comparisons, rounding is a biased float→int conversion, and the zero
// guard is an epsilon add. Every lane is computed for every input —
// exactly the dense, value-independent data flow of the float kernels.

const (
	laneK  = 4  // quantized elements per packed 64-bit word
	actMax = 31 // activation quant range: [-actMax, actMax]
	actOff = 32 // activation offset encoding: lane = q + actOff ∈ [1,63]
	wMax   = 63 // weight quant range: [-wMax, wMax]
	wOff   = 64 // weight offset encoding: lane = q + wOff ∈ [1,127]
)

// packedWords is the number of 64-bit words holding k quantized values.
func packedWords(k int) int { return (k + laneK - 1) / laneK }

// QuantMat is a weight matrix quantized for MatMulQuantInto: 7-bit
// per-output-column symmetric quantization in packed 16-bit lanes.
// Footprint is 2 bytes per weight plus 8 bytes per output column — larger
// than flat int8 but ~4× faster on scalar CPUs (see package comment).
type QuantMat struct {
	In, Out int
	kw      int // packed words per output column = packedWords(In)
	// Packed holds Out column panels of kw words each, lanes reversed
	// within a word (see package comment).
	Packed []uint64
	// Scale[o] dequantizes column o: w ≈ (lane − 64)·Scale[o].
	Scale []float32
	// ColSum[o] is Σ of column o's offset-encoded lanes including padding,
	// folded into the offset correction by the kernel.
	ColSum []int32
	// vec holds the same lanes as bytes for quantDotsAVX2, built only where
	// that kernel serves: columns padded with zero bytes to outPad (a
	// multiple of 8), each group of 8 columns stored four depths at a time
	// (32 bytes: column-major within, depth-minor), and the groups of each
	// full 32-column block interleaved per four depths (vecOffset).
	vec []byte
	// vecColOff (actOff·ColSum) and vecScale are the kernel's epilogue
	// operands, padded with zeros to outPad beside vec.
	vecColOff []int32
	vecScale  []float32
	outPad    int
}

// vecOffset is the index in QuantMat.vec of the weight at depth k of
// column o, for kw depth quads and n32 columns in full 32-column blocks.
func vecOffset(o, k, kw, n32 int) int {
	g, t := o/8, k/laneK
	lane := o%8*laneK + k%laneK
	if o < n32 {
		return (g/4)*kw*128 + t*128 + g%4*32 + lane
	}
	return n32*kw*laneK + (g-n32/8)*kw*32 + t*32 + lane
}

// maxQuantIn bounds the depth so the int32 accumulator cannot overflow:
// the raw lane sum is at most (In/2)·2·32004 < 2^31 for In ≤ 2^16.
const maxQuantIn = 1 << 16

// QuantizeMat quantizes w, laid out In×Out as in y = x·w (nn.Linear.W).
// Weights are model constants — public under the threat model — so this
// offline step may branch freely.
func QuantizeMat(w *Matrix) *QuantMat {
	in, out := w.Rows, w.Cols
	if in > maxQuantIn {
		panic(fmt.Sprintf("tensor: quantized depth %d exceeds %d (int32 accumulator bound)", in, maxQuantIn))
	}
	kw := packedWords(in)
	q := &QuantMat{
		In:     in,
		Out:    out,
		kw:     kw,
		Packed: make([]uint64, out*kw),
		Scale:  make([]float32, out),
		ColSum: make([]int32, out),
		outPad: (out + 7) &^ 7,
	}
	n32 := out &^ 31
	if quantAVX2 {
		q.vec = make([]byte, q.outPad*kw*laneK)
		q.vecColOff = make([]int32, q.outPad)
		q.vecScale = make([]float32, q.outPad)
	}
	for o := 0; o < out; o++ {
		var maxAbs float64
		for k := 0; k < in; k++ {
			if v := math.Abs(float64(w.Data[k*out+o])); v > maxAbs {
				maxAbs = v
			}
		}
		scale := maxAbs / wMax
		if maxAbs == 0 {
			scale = 1
		}
		q.Scale[o] = float32(scale)
		col := q.Packed[o*kw : (o+1)*kw]
		var sum int32
		for t := 0; t < kw; t++ {
			var word uint64
			for lane := 0; lane < laneK; lane++ {
				k := t*laneK + lane
				enc := int32(wOff) // padding encodes an exact zero
				if k < in {
					v := math.Round(float64(w.Data[k*out+o]) / scale)
					if v > wMax {
						v = wMax
					} else if v < -wMax {
						v = -wMax
					}
					enc = int32(v) + wOff
				}
				sum += enc
				// Reversed lane order: lane 0 of the quad lands in the top
				// 16 bits so the product's top lane is the dot product.
				word |= uint64(enc) << (48 - 16*lane)
				if q.vec != nil {
					q.vec[vecOffset(o, k, kw, n32)] = byte(enc)
				}
			}
			col[t] = word
		}
		q.ColSum[o] = sum
		if q.vec != nil {
			q.vecColOff[o] = actOff * sum
			q.vecScale[o] = q.Scale[o]
		}
	}
	return q
}

// NumBytes is the resident footprint of the packed representation, the
// one every build holds. The byte layout the AVX2 kernel reads instead is
// left out on purpose: it exists only on some hosts, and NumBytes sizes
// the dhe-int8 trace sweeps, so counting it would make the leakcheck
// report depend on the CPU it ran on (vec, where built, adds half as
// much again).
func (q *QuantMat) NumBytes() int64 {
	return int64(len(q.Packed))*8 + int64(len(q.Scale))*4 + int64(len(q.ColSum))*4
}

// QuantActs is the reusable activation-quantization scratch for
// MatMulQuantInto: 6-bit per-row symmetric quantization in packed 16-bit
// lanes. Buffers grow on demand and are reused across calls, so
// steady-state quantization allocates nothing. A QuantActs belongs to one
// goroutine's forward path at a time (embed one per nn.Workspace).
type QuantActs struct {
	Rows int
	kw   int
	// Packed holds Rows row panels of kw words each, lanes in forward
	// order (see package comment).
	Packed []uint64
	// RowScale[i] dequantizes row i: a ≈ (lane − 32)·RowScale[i].
	RowScale []float32
	// RowSum[i] is Σ of row i's offset-encoded lanes including padding.
	RowSum []int32
	// vec holds the rows as bytes for quantDotsAVX2 instead of Packed
	// (4·kw bytes a row, the padding lanes included) when that kernel
	// serves.
	vec []byte
	// bias is MatMulQuantInto's bias padded to the weights' outPad for
	// quantDotsAVX2, with −0 (which adds nothing to any float, −0
	// included) where there is no bias.
	bias []float32
}

// Quantize quantizes and packs x into the scratch, replacing its previous
// contents. This wrapper touches only x's shape (public); the per-element
// work on the secret-derived activation values happens in quantizeRow
// and quantizeRowAVX2, which carry the secemb:secret annotation and are
// branchless.
func (qa *QuantActs) Quantize(x *Matrix) {
	rows, cols := x.Rows, x.Cols
	kw := packedWords(cols)
	qa.Rows, qa.kw = rows, kw
	if cap(qa.RowScale) < rows {
		qa.RowScale = make([]float32, rows)
		qa.RowSum = make([]int32, rows)
	}
	qa.RowScale = qa.RowScale[:rows]
	qa.RowSum = qa.RowSum[:rows]
	if quantAVX2 {
		kb := kw * laneK
		qa.Packed = qa.Packed[:0]
		qa.vec = grow(qa.vec, rows*kb)
		for i := 0; i < rows; i++ {
			quantizeRowAVX2(qa.vec[i*kb:(i+1)*kb], x.Data[i*cols:(i+1)*cols], i, qa.RowScale, qa.RowSum)
		}
		return
	}
	qa.vec = qa.vec[:0]
	qa.Packed = grow(qa.Packed, rows*kw)
	for i := 0; i < rows; i++ {
		quantizeRow(qa.Packed[i*kw:(i+1)*kw], x.Data[i*cols:(i+1)*cols], i, qa.RowScale, qa.RowSum)
	}
}

// grow returns s resized to n, reallocating only when n exceeds its
// capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxAbsBits returns the largest of m and the magnitude bits of xRow's
// elements. It masks the IEEE-754 sign bit and takes the max of the raw
// bit patterns: for non-negative floats the bit pattern is monotone in
// the value, so no comparison on secret data is ever taken.
//
// secemb:secret xRow m return
func maxAbsBits(xRow []float32, m uint32) uint32 {
	for _, v := range xRow {
		m = max(m, math.Float32bits(v)&0x7FFFFFFF)
	}
	return m
}

// rowQuantInv records the dequantization scale of the activation row whose
// max-abs bits are m at rowScale[i] and returns its inverse. The
// divide-by-zero guard is an epsilon add instead of a branch.
//
// secemb:secret m return
func rowQuantInv(m uint32, i int, rowScale []float32) float32 {
	ma := math.Float32frombits(m)
	rowScale[i] = (ma + 1e-30) / actMax
	return actMax / (ma + 1e-30)
}

// quantizeBytes writes xRow's lanes, quantized by inv, into dst one byte
// each, padding lanes encoding zero up to len(dst), and returns their sum.
// The float32 conversion rounds each product before the add, so no
// compiler may fuse the two into the FMA that quantBytesAVX2 does not
// take.
//
// secemb:secret xRow inv return
func quantizeBytes(dst []byte, xRow []float32, inv float32) int32 {
	var sum int32
	k := 0
	for ; k+4 <= len(xRow); k += 4 {
		x := xRow[k : k+4 : k+4]
		q0 := int32(float32(x[0]*inv) + (actOff + 0.5))
		q1 := int32(float32(x[1]*inv) + (actOff + 0.5))
		q2 := int32(float32(x[2]*inv) + (actOff + 0.5))
		q3 := int32(float32(x[3]*inv) + (actOff + 0.5))
		sum += q0 + q1 + q2 + q3
		d := dst[k : k+4 : k+4]
		d[0], d[1], d[2], d[3] = byte(q0), byte(q1), byte(q2), byte(q3)
	}
	for ; k < len(xRow); k++ {
		q := int32(float32(xRow[k]*inv) + (actOff + 0.5))
		sum += q
		dst[k] = byte(q)
	}
	for ; k < len(dst); k++ {
		dst[k] = actOff
		sum += actOff
	}
	return sum
}

// quantizeRowAVX2 quantizes one activation row into the byte layout and
// records its scale and offset-encoded sum at index i of the out slices.
// quantMaxAVX2 and quantBytesAVX2 take the row's first len&^7 elements;
// Go reduces their eight lanes, takes the one scalar divide and finishes
// the last len%8 elements and the padding, so the bytes, scale and sum are
// those of maxAbsBits, rowQuantInv and quantizeBytes over the whole row.
//
// secemb:secret xRow
func quantizeRowAVX2(dst []byte, xRow []float32, i int, rowScale []float32, rowSum []int32) {
	n8 := len(xRow) &^ 7
	var m [8]uint32
	var s [8]int32
	if n8 > 0 {
		quantMaxAVX2(&m[0], &xRow[0], n8)
	}
	inv := rowQuantInv(maxAbsBits(xRow[n8:], max(m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7])), i, rowScale)
	if n8 > 0 {
		quantBytesAVX2(&dst[0], &s[0], &xRow[0], &inv, n8&^31, n8)
	}
	rowSum[i] = s[0] + s[1] + s[2] + s[3] + s[4] + s[5] + s[6] + s[7] + quantizeBytes(dst[n8:], xRow[n8:], inv)
}

// quantizeRow quantizes one activation row into dst and records its scale
// and offset-encoded sum at index i of the out slices.
//
// secemb:secret xRow
func quantizeRow(dst []uint64, xRow []float32, i int, rowScale []float32, rowSum []int32) {
	inv := rowQuantInv(maxAbsBits(xRow, 0), i, rowScale)
	cols := len(xRow)
	var sum int32
	t := 0
	for ; (t+1)*laneK <= cols; t++ {
		q0 := int32(float32(xRow[t*laneK]*inv) + (actOff + 0.5))
		q1 := int32(float32(xRow[t*laneK+1]*inv) + (actOff + 0.5))
		q2 := int32(float32(xRow[t*laneK+2]*inv) + (actOff + 0.5))
		q3 := int32(float32(xRow[t*laneK+3]*inv) + (actOff + 0.5))
		sum += q0 + q1 + q2 + q3
		dst[t] = uint64(q0) | uint64(q1)<<16 | uint64(q2)<<32 | uint64(q3)<<48
	}
	if t < len(dst) {
		// Tail word: real lanes first, then padding lanes encoding zero.
		var word uint64
		for lane := 0; lane < laneK; lane++ {
			k := t*laneK + lane
			enc := int32(actOff)
			if k < cols { // public: depends on the shape, not the data
				enc = int32(float32(xRow[k]*inv) + (actOff + 0.5))
			}
			sum += enc
			word |= uint64(enc) << (16 * lane)
		}
		dst[t] = word
	}
	rowSum[i] = sum
}

// MatMulQuantInto computes dst = dequant(qa · w) + bias, reusing dst's
// storage: the quantized analogue of Linear's MatMulInto + bias add, with
// the dequantization (row scale × column scale) and the offset correction
// folded into the epilogue. bias may be nil. qa must hold exactly the
// activation batch quantized against w.In columns; dst must be
// qa.Rows×w.Out and must not alias anything. Dispatch here reads only the
// public shape metadata; the secret-value work is in matMulQuantRange,
// which carries the secemb:secret annotation.
func MatMulQuantInto(dst *Matrix, qa *QuantActs, w *QuantMat, bias []float32, nthreads int) {
	if qa.kw != w.kw || dst.Rows != qa.Rows || dst.Cols != w.Out {
		panic(fmt.Sprintf("tensor: MatMulQuantInto shape mismatch dst %dx%d = %dx(%d words) · (%d words)x%d",
			dst.Rows, dst.Cols, qa.Rows, qa.kw, w.kw, w.Out))
	}
	if bias != nil && len(bias) != w.Out {
		panic(fmt.Sprintf("tensor: MatMulQuantInto bias len %d, want %d", len(bias), w.Out))
	}
	if len(qa.vec) > 0 {
		if w.vec == nil {
			panic("tensor: MatMulQuantInto activations in the AVX2 layout, weights quantized without it")
		}
		qa.bias = grow(qa.bias, w.outPad)
		for o := copy(qa.bias, bias); o < len(qa.bias); o++ {
			qa.bias[o] = negZero
		}
		bias = qa.bias
	}
	if clampWorkers(nthreads, qa.Rows) <= 1 {
		matMulQuantRange(dst, qa, w, bias, 0, qa.Rows)
		return
	}
	parallelRows(qa.Rows, clampWorkers(nthreads, qa.Rows), func(lo, hi int) {
		matMulQuantRange(dst, qa, w, bias, lo, hi)
	})
}

// negZero pads the AVX2 kernel's bias: x + (−0) is x for every float x.
var negZero = float32(math.Copysign(0, -1))

// matMulQuantRange computes rows [lo,hi) of the quantized product, each
// row on the kernel whose layout qa holds: quantRowAVX2 for the byte
// layout, quantRowSWAR for the packed words. Both produce the row's exact
// integer dot products and dequantize them with the same arithmetic, so
// their floats are bit-identical. The AVX2 kernel adds bias itself (padded
// to w.outPad); the SWAR rows get it here.
//
// secemb:secret qa
func matMulQuantRange(dst *Matrix, qa *QuantActs, w *QuantMat, bias []float32, lo, hi int) {
	kw, n := w.kw, w.Out
	// Per the package comment: dot = S − 64·Σa' − 32·Σw' + 2048·K.
	corrK := actOff * wOff * int32(kw*laneK)
	for i := lo; i < hi; i++ {
		corrA := wOff*qa.RowSum[i] - corrK
		outRow := dst.Data[i*n : (i+1)*n : (i+1)*n]
		if len(qa.vec) > 0 {
			quantRowAVX2(outRow, qa, w, bias, i, corrA)
			continue
		}
		quantRowSWAR(outRow, qa.Packed[i*kw:(i+1)*kw:(i+1)*kw], w, corrA, qa.RowScale[i])
		if bias != nil {
			b := bias[:n]
			for o := range outRow {
				outRow[o] += b[o]
			}
		}
	}
}

// quantRowEpi is one row's share of quantDotsAVX2's epilogue, which the
// kernel reads from memory: the row scale and the offset correction.
type quantRowEpi struct {
	rs    float32
	corrA int32
}

// quantRowAVX2 computes row i of the product from the byte layout, plus
// bias (padded to w.outPad): one quantDotsAVX2 call writes the row's full
// groups of 8 columns into outRow, and a second writes the group of the
// last Out%8 columns into a stack array, whose real columns are copied
// out.
//
// secemb:secret qa corrA
func quantRowAVX2(outRow []float32, qa *QuantActs, w *QuantMat, bias []float32, i int, corrA int32) {
	kb, n := w.kw*laneK, w.Out
	n8 := n &^ 7
	a := &qa.vec[i*kb]
	row := quantRowEpi{rs: qa.RowScale[i], corrA: corrA}
	if n8 > 0 {
		quantDotsAVX2(&outRow[0], a, &w.vec[0], &w.vecColOff[0], &w.vecScale[0], &bias[0], &row, kb, n&^31, n8)
	}
	if n8 < n {
		var tail [8]float32
		quantDotsAVX2(&tail[0], a, &w.vec[n8*kb], &w.vecColOff[n8], &w.vecScale[n8], &bias[n8], &row, kb, 0, 8)
		copy(outRow[n8:], tail[:])
	}
}

// quantRowSWAR computes one row of the product from its packed activation
// words aRow. The inner loop multiplies one packed activation word against
// the matching word of four weight columns, sums each pair of consecutive
// products before extracting the top lane (safe: pair sums < 2^16, see
// package comment), and blocks four output columns per pass so every
// activation word loaded from memory feeds sixteen multiply-accumulates.
// Full slice expressions pin the slice lengths so the compiler drops the
// inner-loop bounds checks.
//
// secemb:secret aRow corrA rs
func quantRowSWAR(outRow []float32, aRow []uint64, w *QuantMat, corrA int32, rs float32) {
	kw := w.kw
	n := w.Out
	o := 0
	for ; o+4 <= n; o += 4 {
		w0 := w.Packed[o*kw : (o+1)*kw : (o+1)*kw]
		w1 := w.Packed[(o+1)*kw : (o+2)*kw : (o+2)*kw]
		w2 := w.Packed[(o+2)*kw : (o+3)*kw : (o+3)*kw]
		w3 := w.Packed[(o+3)*kw : (o+4)*kw : (o+4)*kw]
		w0 = w0[:len(aRow)]
		w1 = w1[:len(aRow)]
		w2 = w2[:len(aRow)]
		w3 = w3[:len(aRow)]
		var s0, s1, s2, s3 uint64
		k := 0
		for ; k+8 <= len(aRow); k += 8 {
			a0, a1, a2, a3 := aRow[k], aRow[k+1], aRow[k+2], aRow[k+3]
			a4, a5, a6, a7 := aRow[k+4], aRow[k+5], aRow[k+6], aRow[k+7]
			s0 += (a0*w0[k]+a1*w0[k+1])>>48 + (a2*w0[k+2]+a3*w0[k+3])>>48 +
				(a4*w0[k+4]+a5*w0[k+5])>>48 + (a6*w0[k+6]+a7*w0[k+7])>>48
			s1 += (a0*w1[k]+a1*w1[k+1])>>48 + (a2*w1[k+2]+a3*w1[k+3])>>48 +
				(a4*w1[k+4]+a5*w1[k+5])>>48 + (a6*w1[k+6]+a7*w1[k+7])>>48
			s2 += (a0*w2[k]+a1*w2[k+1])>>48 + (a2*w2[k+2]+a3*w2[k+3])>>48 +
				(a4*w2[k+4]+a5*w2[k+5])>>48 + (a6*w2[k+6]+a7*w2[k+7])>>48
			s3 += (a0*w3[k]+a1*w3[k+1])>>48 + (a2*w3[k+2]+a3*w3[k+3])>>48 +
				(a4*w3[k+4]+a5*w3[k+5])>>48 + (a6*w3[k+6]+a7*w3[k+7])>>48
		}
		for ; k+4 <= len(aRow); k += 4 {
			a0, a1, a2, a3 := aRow[k], aRow[k+1], aRow[k+2], aRow[k+3]
			s0 += (a0*w0[k]+a1*w0[k+1])>>48 + (a2*w0[k+2]+a3*w0[k+3])>>48
			s1 += (a0*w1[k]+a1*w1[k+1])>>48 + (a2*w1[k+2]+a3*w1[k+3])>>48
			s2 += (a0*w2[k]+a1*w2[k+1])>>48 + (a2*w2[k+2]+a3*w2[k+3])>>48
			s3 += (a0*w3[k]+a1*w3[k+1])>>48 + (a2*w3[k+2]+a3*w3[k+3])>>48
		}
		for ; k+2 <= len(aRow); k += 2 {
			a0, a1 := aRow[k], aRow[k+1]
			s0 += (a0*w0[k] + a1*w0[k+1]) >> 48
			s1 += (a0*w1[k] + a1*w1[k+1]) >> 48
			s2 += (a0*w2[k] + a1*w2[k+1]) >> 48
			s3 += (a0*w3[k] + a1*w3[k+1]) >> 48
		}
		for ; k < len(aRow); k++ {
			a0 := aRow[k]
			s0 += a0 * w0[k] >> 48
			s1 += a0 * w1[k] >> 48
			s2 += a0 * w2[k] >> 48
			s3 += a0 * w3[k] >> 48
		}
		q0 := int32(s0) - actOff*w.ColSum[o] - corrA
		q1 := int32(s1) - actOff*w.ColSum[o+1] - corrA
		q2 := int32(s2) - actOff*w.ColSum[o+2] - corrA
		q3 := int32(s3) - actOff*w.ColSum[o+3] - corrA
		// The outer float32() rounds each product before matMulQuantRange
		// adds the bias, so no compiler may fuse the two into the FMA that
		// quantDotsAVX2 does not take.
		outRow[o] = float32(float32(q0) * rs * w.Scale[o])
		outRow[o+1] = float32(float32(q1) * rs * w.Scale[o+1])
		outRow[o+2] = float32(float32(q2) * rs * w.Scale[o+2])
		outRow[o+3] = float32(float32(q3) * rs * w.Scale[o+3])
	}
	for ; o < n; o++ {
		w0 := w.Packed[o*kw : (o+1)*kw : (o+1)*kw]
		w0 = w0[:len(aRow)]
		var s0 uint64
		k := 0
		for ; k+2 <= len(aRow); k += 2 {
			s0 += (aRow[k]*w0[k] + aRow[k+1]*w0[k+1]) >> 48
		}
		for ; k < len(aRow); k++ {
			s0 += aRow[k] * w0[k] >> 48
		}
		q0 := int32(s0) - actOff*w.ColSum[o] - corrA
		outRow[o] = float32(float32(q0) * rs * w.Scale[o])
	}
}
