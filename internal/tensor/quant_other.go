//go:build !amd64 || purego

package tensor

// quantAVX2 is false off amd64 and under the purego tag: the SWAR kernel
// serves alone.
var quantAVX2 = false

// The AVX2 kernels exist only so the byte-layout paths compile; quantAVX2
// keeps them unreachable.

// secemb:secret out a row
func quantDotsAVX2(out *float32, a, w *byte, colOff *int32, scale, bias *float32, row *quantRowEpi, kb, n32, n8 int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

// secemb:secret m x
func quantMaxAVX2(m *uint32, x *float32, n8 int) {
	panic("tensor: no AVX2 kernel on this architecture")
}

// secemb:secret dst sums x inv
func quantBytesAVX2(dst *byte, sums *int32, x *float32, inv *float32, n32, n8 int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
