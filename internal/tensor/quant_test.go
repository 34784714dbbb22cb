package tensor

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"secemb/internal/oblivious"
)

// weightAt decodes the quantized weight at depth k of output column o —
// the value the kernel effectively multiplies by.
func (q *QuantMat) weightAt(k, o int) float32 {
	word := q.Packed[o*q.kw+k/laneK]
	lane := (word >> (48 - 16*(k%laneK))) & 0xFFFF
	return float32(int32(lane)-wOff) * q.Scale[o]
}

// actAt decodes the quantized activation at row i, depth k — the value
// the kernel effectively multiplies by.
func (qa *QuantActs) actAt(i, k int) float32 {
	if len(qa.vec) > 0 {
		return float32(int32(qa.vec[i*qa.kw*laneK+k])-actOff) * qa.RowScale[i]
	}
	word := qa.Packed[i*qa.kw+k/laneK]
	lane := (word >> (16 * (k % laneK))) & 0xFFFF
	return float32(int32(lane)-actOff) * qa.RowScale[i]
}

// refQuantProduct computes what MatMulQuantInto should produce, from the
// decoded quantized operands with plain float arithmetic: the kernel's
// packed SWAR evaluation must match this exactly — quantization decides
// the precision, the packing must decide nothing.
func refQuantProduct(x *Matrix, w *QuantMat, qa *QuantActs, bias []float32) *Matrix {
	out := New(x.Rows, w.Out)
	for i := 0; i < x.Rows; i++ {
		for o := 0; o < w.Out; o++ {
			var sum float64
			for k := 0; k < x.Cols; k++ {
				sum += float64(qa.actAt(i, k)) * float64(w.weightAt(k, o))
			}
			if bias != nil {
				sum += float64(bias[o])
			}
			out.Data[i*w.Out+o] = float32(sum)
		}
	}
	return out
}

func randMatrix(rows, cols int, scale float32, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

func TestMatMulQuantMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ m, k, n int }{
		{1, 8, 2}, {3, 5, 7}, {4, 64, 16}, {64, 1024, 512}, {2, 1023, 9},
	} {
		x := randMatrix(shape.m, shape.k, 1, rng)
		w := randMatrix(shape.k, shape.n, 0.1, rng)
		bias := make([]float32, shape.n)
		for i := range bias {
			bias[i] = rng.Float32() - 0.5
		}
		q := QuantizeMat(w)
		var qa QuantActs
		qa.Quantize(x)
		got := New(shape.m, shape.n)
		MatMulQuantInto(got, &qa, q, bias, 1)

		// Against the float product: quantization error only, bounded by
		// the 6-bit activation step accumulated over k.
		want := MatMul(x, w, 1)
		for i := range bias {
			for r := 0; r < shape.m; r++ {
				want.Data[r*shape.n+i] += bias[i]
			}
		}
		tol := 0.008 * math.Sqrt(float64(shape.k)) // ~εa·σw·√k margin
		if tol < 0.02 {
			tol = 0.02
		}
		if diff := MaxAbsDiff(got, want); diff > tol {
			t.Errorf("%dx%dx%d: quant vs float diff %v > %v", shape.m, shape.k, shape.n, diff, tol)
		}

		// Against the decoded-operand reference: near-exact (float32
		// rounding of identical quantities only).
		ref := refQuantProduct(x, q, &qa, bias)
		if diff := MaxAbsDiff(got, ref); float64(diff) > 1e-3 {
			t.Errorf("%dx%dx%d: kernel vs decoded reference diff %v", shape.m, shape.k, shape.n, diff)
		}
	}
}

func TestQuantEdgeCases(t *testing.T) {
	// All-zero rows and columns must stay exact zeros, not NaNs.
	x := New(2, 8)
	w := New(8, 3)
	q := QuantizeMat(w)
	var qa QuantActs
	qa.Quantize(x)
	out := New(2, 3)
	MatMulQuantInto(out, &qa, q, nil, 1)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("zero·zero gave %v at %d", v, i)
		}
	}
	// Extreme dynamic range within a column: small weights are crushed to
	// zero by the shared scale — the documented failure mode the accuracy
	// gate exists for — but nothing overflows or corrupts neighbors.
	w2 := New(8, 2)
	w2.Data[0*2+0] = 1e6
	for k := 1; k < 8; k++ {
		w2.Data[k*2+0] = 1e-6
		w2.Data[k*2+1] = 0.5
	}
	q2 := QuantizeMat(w2)
	x2 := New(1, 8)
	for k := 0; k < 8; k++ {
		x2.Data[k] = 1
	}
	qa.Quantize(x2)
	out2 := New(1, 2)
	MatMulQuantInto(out2, &qa, q2, nil, 1)
	if math.Abs(float64(out2.Data[0])-1e6) > 1e6*0.02 {
		t.Fatalf("outlier column: got %v want ~1e6", out2.Data[0])
	}
	if math.Abs(float64(out2.Data[1])-3.5) > 3.5*0.05 {
		t.Fatalf("neighbor column corrupted: got %v want ~3.5", out2.Data[1])
	}
}

func TestQuantActsSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(16, 96, 1, rng)
	w := randMatrix(96, 24, 0.2, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	out := New(16, 24)
	qa.Quantize(x)
	MatMulQuantInto(out, &qa, q, nil, 1)
	allocs := testing.AllocsPerRun(50, func() {
		qa.Quantize(x)
		MatMulQuantInto(out, &qa, q, nil, 1)
	})
	if allocs != 0 {
		t.Fatalf("quantized forward allocates %.0f objects per call after warmup", allocs)
	}
}

func TestMatMulQuantParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randMatrix(33, 130, 1, rng)
	w := randMatrix(130, 17, 0.2, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	qa.Quantize(x)
	serial, parallel := New(33, 17), New(33, 17)
	MatMulQuantInto(serial, &qa, q, nil, 1)
	MatMulQuantInto(parallel, &qa, q, nil, 8)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("parallel result differs at %d: %v vs %v", i, parallel.Data[i], serial.Data[i])
		}
	}
}

func BenchmarkMatMulQuant256(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randMatrix(256, 256, 1, rng)
	w := randMatrix(256, 256, 0.1, rng)
	q := QuantizeMat(w)
	var qa QuantActs
	out := New(256, 256)
	qa.Quantize(x) // size the scratch before the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qa.Quantize(x)
		MatMulQuantInto(out, &qa, q, nil, 0)
	}
}

// quantProduct quantizes x and multiplies it by q on the AVX2 kernel or
// on the SWAR kernel.
func quantProduct(x *Matrix, q *QuantMat, bias []float32, avx2 bool, nthreads int) *Matrix {
	defer func(prev bool) { quantAVX2 = prev }(quantAVX2)
	quantAVX2 = avx2
	var qa QuantActs
	qa.Quantize(x)
	dst := New(x.Rows, q.Out)
	MatMulQuantInto(dst, &qa, q, bias, nthreads)
	return dst
}

// checkKernelMatchesSWAR requires the AVX2 kernel's product to equal the
// SWAR kernel's bit for bit at one shape.
func checkKernelMatchesSWAR(t *testing.T, rng *rand.Rand, rows, in, out int, withBias bool) {
	t.Helper()
	x := randMatrix(rows, in, 1+9*rng.Float32(), rng)
	if rows > 1 {
		clear(x.Row(0)) // an all-zero row takes the epsilon scale
	}
	w := randMatrix(in, out, 0.1, rng)
	var bias []float32
	if withBias {
		bias = randMatrix(1, out, 0.5, rng).Data
	}
	q := QuantizeMat(w)
	want := quantProduct(x, q, bias, false, 1)
	got := quantProduct(x, q, bias, true, 1+rng.Intn(2))
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%dx%d·%dx%d bias=%v: [%d] = %v, SWAR %v", rows, in, in, out, withBias, i, got.Data[i], want.Data[i])
		}
	}
}

// TestQuantKernelMatchesSWAR runs both quantized kernels over random
// shapes, depths off multiples of 4 and 32 and widths off multiples of 8
// and 32 included, plus the DHE decoder shapes.
func TestQuantKernelMatchesSWAR(t *testing.T) {
	if !oblivious.HasAVX2() {
		t.Skip("no AVX2 kernel on this machine")
	}
	rng := rand.New(rand.NewSource(44))
	// Past 512 columns a row takes several kernel calls.
	for _, s := range [][3]int{{7, 5, 3}, {64, 128, 64}, {64, 64, 32}, {64, 32, 64}, {64, 1024, 512}, {1, 1, 1}, {3, 100, 1100}, {2, 37, 1061}} {
		checkKernelMatchesSWAR(t, rng, s[0], s[1], s[2], true)
	}
	for trial := 0; trial < 200; trial++ {
		checkKernelMatchesSWAR(t, rng, 1+rng.Intn(70), 1+rng.Intn(300), 1+rng.Intn(70), trial%2 == 0)
	}
}

// FuzzQuantKernel is TestQuantKernelMatchesSWAR's fuzz leg: the fuzzer
// picks the shape and the data seed.
func FuzzQuantKernel(f *testing.F) {
	if !oblivious.HasAVX2() {
		f.Skip("no AVX2 kernel on this machine")
	}
	f.Add(int64(1), uint8(7), uint16(5), uint8(3), true)
	f.Add(int64(2), uint8(64), uint16(128), uint8(64), false)
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, in uint16, out uint8, withBias bool) {
		rng := rand.New(rand.NewSource(seed))
		checkKernelMatchesSWAR(t, rng, 1+int(rows)%70, 1+int(in)%300, 1+int(out)%70, withBias)
	})
}

// quantizeRowBytes is the Go reference for quantizeRowAVX2: the same
// bytes, scale and sum from the scalar loops alone.
func quantizeRowBytes(dst []byte, xRow []float32, i int, rowScale []float32, rowSum []int32) {
	rowSum[i] = quantizeBytes(dst, xRow, rowQuantInv(maxAbsBits(xRow, 0), i, rowScale))
}

// TestQuantizeRowAVX2MatchesGo: the vector quantizer's bytes, row scale and
// row sum equal the Go path's bit for bit at every width from 1 to 300
// (every tail past the 32- and 8-element passes), on rows built where
// rounding and truncation have edges: signed zeros, denormals, a negative
// max-abs element, products landing exactly on an integer after the +32.5,
// an all-zero row, ±MaxFloat32, and the non-finite values whose integer
// indefinite both paths must narrow to the same byte.
func TestQuantizeRowAVX2MatchesGo(t *testing.T) {
	if !quantAVX2 {
		t.Skip("no AVX2 kernel on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	denormal := func() float32 {
		v := math.Float32frombits(1 + rng.Uint32()%0x7FFFFF)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	edges := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		0.5, -0.5, 1.5, -30.5, 30.5, 31, -31, math.MaxFloat32, -math.MaxFloat32,
		math.Nextafter32(0.5, 1), math.Nextafter32(-0.5, -1)}
	kinds := map[string]func(k, width int) float32{
		"zero":     func(int, int) float32 { return 0 },
		"negzero":  func(int, int) float32 { return negZero },
		"denormal": func(int, int) float32 { return denormal() },
		"negmax": func(k, width int) float32 {
			if k == width/2 {
				return -2
			}
			return rng.Float32()*2 - 1
		},
		// With 31 as the max-abs, inv is exactly 1 and every k+0.5 lands
		// on an integer after the +32.5.
		"halves": func(k, _ int) float32 {
			if k == 0 {
				return 31
			}
			return float32(rng.Intn(62)-31) + 0.5
		},
		"maxfloat": func(k, _ int) float32 {
			if k%3 == 0 {
				return math.MaxFloat32 * float32(1-2*(k/3%2))
			}
			return rng.Float32()*2 - 1
		},
		"edges":  func(int, int) float32 { return edges[rng.Intn(len(edges))] },
		"mixed":  func(int, int) float32 { return (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(80)-40))) },
		"inf":    func(k, _ int) float32 { return []float32{float32(math.Inf(1)), 1, -2}[k%3] },
		"nan":    func(k, _ int) float32 { return []float32{float32(math.NaN()), 1, -2}[k%3] },
		"neginf": func(k, _ int) float32 { return []float32{-3, float32(math.Inf(-1))}[k%2] },
	}
	for width := 1; width <= 300; width++ {
		kb := packedWords(width) * laneK
		for _, name := range slices.Sorted(maps.Keys(kinds)) { // a fixed order keeps rng's draws reproducible
			gen := kinds[name]
			x := make([]float32, width)
			for k := range x {
				x[k] = gen(k, width)
			}
			want, got := make([]byte, kb), make([]byte, kb)
			for k := range got {
				want[k], got[k] = 0xA5, 0x5A // every byte must be written
			}
			var wantScale, gotScale [2]float32
			var wantSum, gotSum [2]int32
			quantizeRowBytes(want, x, 1, wantScale[:], wantSum[:])
			quantizeRowAVX2(got, x, 1, gotScale[:], gotSum[:])
			if string(got) != string(want) {
				t.Fatalf("width %d %s: bytes\n got %v\nwant %v", width, name, got, want)
			}
			if math.Float32bits(gotScale[1]) != math.Float32bits(wantScale[1]) || gotSum[1] != wantSum[1] {
				t.Fatalf("width %d %s: scale %v sum %d, want %v %d", width, name, gotScale[1], gotSum[1], wantScale[1], wantSum[1])
			}
		}
	}
}

// TestQuantKernelNilBiasKeepsNegativeZero: without a bias the AVX2 kernel
// still adds its padded bias, so the padding must be −0, which leaves a
// product that underflowed to −0 as the SWAR kernel leaves it.
func TestQuantKernelNilBiasKeepsNegativeZero(t *testing.T) {
	if !oblivious.HasAVX2() {
		t.Skip("no AVX2 kernel on this machine")
	}
	rng := rand.New(rand.NewSource(48))
	x := randMatrix(4, 40, 1e-30, rng)
	q := QuantizeMat(randMatrix(40, 13, 1e-20, rng))
	want := quantProduct(x, q, nil, false, 1)
	got := quantProduct(x, q, nil, true, 1)
	negZeros := 0
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("[%d] = %v (%#x), SWAR %v (%#x)", i, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
		}
		if math.Float32bits(v) == math.Float32bits(negZero) {
			negZeros++
		}
	}
	if negZeros == 0 {
		t.Fatal("no product underflowed to −0; the test shape no longer exercises the padding")
	}
}
