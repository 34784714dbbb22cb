// Package leaky is the deliberately-leaky fixture — the static analogue of
// leakcheck's plain-lookup negative control. Every function below leaks its
// secret through an address or a branch, and obliviouslint must flag each
// one; cmd/obliviouslint's exit-code test runs this package and fails if
// the checker has lost its teeth. Every test loads it through the module
// loader, by its explicit testdata path.
package leaky

// Lookup gathers a table row directly by the secret index — the §III
// baseline leak.
//
// secemb:secret id return
func Lookup(table []float32, width int, id int) []float32 {
	return table[id*width : (id+1)*width] // want `obliviouslint/index: slice bounds depend on secret-tainted value`
}

// CacheBypass branches on the secret id — a controlled-channel attacker
// sees which side executed.
//
// secemb:secret id return
func CacheBypass(cache []float32, id uint64) float32 {
	if id < 8 { // want `obliviouslint/branch: branch condition depends on secret-tainted value \(guards an early return\)`
		return cache[id] // want `obliviouslint/index: index depends on secret-tainted value`
	}
	return 0
}

// TruncatedScan stops scanning at the secret index instead of sweeping the
// whole table — the loop trip count is the leak.
//
// secemb:secret id return
func TruncatedScan(table []float32, id int) float32 {
	var acc float32
	for i := 0; i <= id; i++ { // want `obliviouslint/loop: loop bound depends on secret-tainted value`
		acc = table[i]
	}
	return acc
}

var record func(addr uint64)

// TraceLeak hands the secret straight to an unaudited observer — the
// "tracer call drifting inside a data-dependent path" case the CI gate
// exists for. The observer is an indirect call, so no summary can vouch
// for it and the conservative call finding stands.
//
// secemb:secret id
func TraceLeak(id uint64) {
	record(id) // want `obliviouslint/call: secret-tainted argument in indirect call`
}

// QuantScaleLeak is the int8-kernel failure mode: dequantizing through a
// scale table indexed by the secret accumulator value. The correct kernel
// indexes scales by the (public) output column only; indexing by anything
// derived from the quantized data re-opens the lookup side channel the
// quantization was supposed to stay clear of.
//
// secemb:secret q return
func QuantScaleLeak(scales []float32, q int32) float32 {
	return float32(q) * scales[q&15] // want `obliviouslint/index: index depends on secret-tainted value`
}
