//go:build amd64 && !purego

package oblivious

// hasAVX2 reports whether the CPU and the OS support AVX2, read once at
// package init; it selects OrTile's and ScanBlock's vector kernels.
var hasAVX2 = detectAVX2()

// detectAVX2 needs CPUID.1:ECX OSXSAVE (bit 27) and AVX (bit 28), the OS
// saving XMM and YMM state (XCR0 bits 1 and 2), and CPUID.7.0:EBX AVX2
// (bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7)
	return ebx7&(1<<5) != 0
}

// orTileAVX2 ORs t0&m0 | t1&m1 | t2&m2 | t3&m3 into the n words at a, four
// per instruction; n must be a positive multiple of 4 (ortile_amd64.s).
//
// secemb:secret a m0 m1 m2 m3
//
//go:noescape
func orTileAVX2(a, t0, t1, t2, t3 *uint64, n int, m0, m1, m2, m3 uint64)

// scanBlockAVX2 is ScanBlock for the one query whose id is at id, over the
// first w4 words of each row of the n-word block; w16 and w4 are width
// rounded down to multiples of 16 and 4, w4 > 0 and n ≥ width
// (ortile_amd64.s).
//
// secemb:secret acc id
//
//go:noescape
func scanBlockAVX2(acc, words, id *uint64, width, w16, w4, r0, n int)

// cpuid returns the CPUID registers of leaf at sub-leaf 0.
func cpuid(leaf int) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)
