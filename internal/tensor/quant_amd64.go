//go:build amd64 && !purego

package tensor

import "secemb/internal/oblivious"

// quantAVX2 selects the AVX2 quantized kernel (quant_amd64.s): Quantize
// then builds the byte layout it reads, and MatMulQuantInto runs it. The
// tests clear it to run the SWAR kernel on the same machine.
var quantAVX2 = oblivious.HasAVX2()

// quantDotsAVX2 writes, for the one activation row at a (kb bytes, kb a
// positive multiple of 4), its integer dot product with each of n8 weight
// columns into sums: 32 columns per pass below n32, then 8 (QuantMat.vec
// lays them out; n32 and n8 are multiples of 32 and 8, n32 ≤ n8).
//
// secemb:secret sums a
//
//go:noescape
func quantDotsAVX2(sums *int32, a, w *byte, kb, n32, n8 int)
