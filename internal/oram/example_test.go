package oram_test

import (
	"fmt"

	"secemb/internal/oram"
)

// Example stores data in a Circuit ORAM and reads it back; the physical
// access pattern is independent of the requested ids.
func Example() {
	o := oram.NewCircuit(oram.Config{NumBlocks: 128, BlockWords: 2, Seed: 1})
	o.Update(5, func(d []uint32) { d[0], d[1] = 10, 20 })
	o.Update(5, func(d []uint32) { d[0]++ })
	fmt.Println(o.Read(5), o.RecursionDepth())
	// Output: [11 20] 0
}

// ExampleCircuitFootprintBytes accounts a Table-VI-scale footprint without
// building the tree.
func ExampleCircuitFootprintBytes() {
	raw := int64(10_131_227) * 16 * 4 // Kaggle's largest table at dim 16
	orameBytes := oram.CircuitFootprintBytes(10_131_227, 16)
	fmt.Printf("%.1fx\n", float64(orameBytes)/float64(raw))
	// Output: 4.2x
}
