//go:build !amd64

package oblivious

// hasAVX2 is false off amd64, so OrTile's scalar loop runs every tile.
const hasAVX2 = false

// orTileAVX2 exists only so OrTile compiles; hasAVX2 keeps it unreachable.
//
// secemb:secret a m0 m1 m2 m3
func orTileAVX2(a, t0, t1, t2, t3 *uint64, n int, m0, m1, m2, m3 uint64) {
	panic("oblivious: no AVX2 kernel on this architecture")
}
