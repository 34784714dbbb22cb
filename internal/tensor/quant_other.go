//go:build !amd64 || purego

package tensor

// quantAVX2 is false off amd64 and under the purego tag: the SWAR kernel
// serves alone.
var quantAVX2 = false

// quantDotsAVX2 exists only so matMulQuantRange compiles; quantAVX2 keeps
// it unreachable.
//
// secemb:secret sums a
func quantDotsAVX2(sums *int32, a, w *byte, kb, n32, n8 int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
