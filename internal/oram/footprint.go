package oram

// footprintBytes computes, without building anything, the memory footprint
// of the ORAM a filled cfg describes: bucket tree (packed payload plus
// 12-byte slot metadata), stash, and the recursive position-map hierarchy.
// It matches Controller.NumBytes exactly (asserted in tests), and exists so
// Table VI/VIII-scale footprints (tens of GB) can be accounted without
// allocating them.
func footprintBytes(cfg Config) int64 {
	leaves := 1 << Levels(cfg.NumBlocks, cfg.Z)
	slots := int64(2*leaves-1) * int64(cfg.Z)
	block := int64(12 + 8*packedWidth(cfg.BlockWords)) // id, leaf, packed payload
	total := (slots + int64(cfg.StashSize)) * block    // tree and stash
	if !cfg.recurses() {
		return total + int64(cfg.NumBlocks)*4 // flat posmap, as flatPosMap.NumBytes counts it
	}
	return total + footprintBytes(cfg.posmapConfig())
}

// PathFootprintBytes is the footprint of a Path ORAM of n blocks × words
// payload elements with every other Config field at its default.
func PathFootprintBytes(n, words int) int64 { return defaultFootprint(schemePath, n, words) }

// CircuitFootprintBytes is PathFootprintBytes for Circuit ORAM.
func CircuitFootprintBytes(n, words int) int64 { return defaultFootprint(schemeCircuit, n, words) }

func defaultFootprint(s scheme, n, words int) int64 {
	cfg := Config{NumBlocks: n, BlockWords: words}
	cfg.fill(s)
	return footprintBytes(cfg)
}
