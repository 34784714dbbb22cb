//go:build amd64 && !purego

package tensor

import "secemb/internal/oblivious"

// quantAVX2 selects the AVX2 quantized kernels (quant_amd64.s): Quantize
// then builds the byte layout with quantMaxAVX2 and quantBytesAVX2, and
// MatMulQuantInto runs quantDotsAVX2 on it. The tests clear it to run the
// SWAR kernel on the same machine.
var quantAVX2 = oblivious.HasAVX2()

// quantDotsAVX2 writes, for the one activation row at a (kb bytes, kb a
// positive multiple of 4), its dequantized product with each of n8 weight
// columns plus bias into out: 32 columns per pass below n32, then 8
// (QuantMat.vec lays them out; n32 and n8 are multiples of 32 and 8,
// n32 ≤ n8). colOff, scale and bias hold n8 entries each; row holds the
// row's scale and offset correction.
//
// secemb:secret out a row
//
//go:noescape
func quantDotsAVX2(out *float32, a, w *byte, colOff *int32, scale, bias *float32, row *quantRowEpi, kb, n32, n8 int)

// quantMaxAVX2 stores in m[0:8] the lane-wise max of the magnitude bits of
// x's first n8 elements (n8 a multiple of 8).
//
// secemb:secret m x
//
//go:noescape
func quantMaxAVX2(m *uint32, x *float32, n8 int)

// quantBytesAVX2 quantizes x's first n8 elements by *inv into the bytes at
// dst and stores their lane sums in sums[0:8]: 32 elements per pass below
// n32, then 8 (n32 and n8 multiples of 32 and 8, n32 ≤ n8).
//
// secemb:secret dst sums x inv
//
//go:noescape
func quantBytesAVX2(dst *byte, sums *int32, x *float32, inv *float32, n32, n8 int)
