package oram

// FootprintBytes computes, without building anything, the memory footprint
// a tree ORAM of n blocks × words payload words would occupy: bucket tree
// (payload + 12-byte slot metadata), stash, and the recursive position-map
// hierarchy. It matches ORAM.NumBytes() exactly (asserted in tests), and
// exists so Table VI/VIII-scale footprints (tens of GB) can be accounted
// without allocating them.
func FootprintBytes(n, words, z, stashSize, recursionCutoff int) int64 {
	if z == 0 {
		z = DefaultZ
	}
	leaves := 1 << Levels(n, z)
	slots := int64(2*leaves-1) * int64(z)
	total := slots * int64(12+4*words)               // tree
	total += int64(stashSize) * int64(12+4*words)    // stash
	if recursionCutoff < 0 || n <= recursionCutoff { // flat posmap
		return total + int64(n)*4
	}
	blocks := (n + Chi - 1) / Chi
	return total + FootprintBytes(blocks, Chi, z, stashSize, recursionCutoff)
}

// PathFootprintBytes is FootprintBytes with Path ORAM defaults.
func PathFootprintBytes(n, words int) int64 {
	return FootprintBytes(n, words, DefaultZ, DefaultPathStash, DefaultPathRecursionCutoff)
}

// CircuitFootprintBytes is FootprintBytes with Circuit ORAM defaults.
func CircuitFootprintBytes(n, words int) int64 {
	return FootprintBytes(n, words, DefaultZ, DefaultCircuitStash, DefaultCircRecursionCutoff)
}
