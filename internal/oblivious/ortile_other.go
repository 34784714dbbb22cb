//go:build !amd64 || purego

package oblivious

// hasAVX2 is false off amd64 and under the purego tag, so OrTile and
// ScanBlock run their portable Go loops alone.
const hasAVX2 = false

// orTileAVX2 exists only so OrTile compiles; hasAVX2 keeps it unreachable.
//
// secemb:secret a m0 m1 m2 m3
func orTileAVX2(a, t0, t1, t2, t3 *uint64, n int, m0, m1, m2, m3 uint64) {
	panic("oblivious: no AVX2 kernel on this architecture")
}

// scanBlockAVX2 exists only so ScanBlock compiles; hasAVX2 keeps it
// unreachable.
//
// secemb:secret acc id
func scanBlockAVX2(acc, words, id *uint64, width, w16, w4, r0, n int) {
	panic("oblivious: no AVX2 kernel on this architecture")
}
