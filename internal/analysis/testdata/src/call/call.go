// Fixture: call-class findings — taint escaping into unaudited callees —
// plus the whitelist-sink and annotated-contract behaviors (check class 4).
package call

import (
	"strconv"

	"secemb/internal/oblivious"
)

func helper(v uint64) uint64 { return v }

// Escapes hands the secret to an unannotated same-package helper: the
// interprocedural summary proves helper only forwards v to its result, so
// the call itself is silent and the taint re-emerges on y.
//
// secemb:secret id
func Escapes(id uint64) {
	y := helper(id) // ok: summarized — helper merely returns its argument
	if y > 0 {      // want `obliviouslint/branch: branch condition depends on secret-tainted value`
	}
}

// Opaque hands the secret to a standard-library function: the loader reads
// the standard library as export data only, so the callee has no body in
// the program, no summary exists and the conservative call finding
// survives.
//
// secemb:secret id
func Opaque(id uint64) {
	_ = strconv.FormatUint(id, 10) // want `obliviouslint/call: secret-tainted argument escapes into unannotated function FormatUint`
}

// Sanctioned routes the secret through the whitelisted oblivious package:
// no call findings, and the mask result stays tainted.
//
// secemb:secret id return
func Sanctioned(id uint64) uint64 {
	m := oblivious.Eq(id, 3)
	return oblivious.Select64(m, 1, 0)
}

// audited is a annotated callee with one secret and one public parameter.
//
// secemb:secret key
func audited(key uint64, publicN int) {
	_ = oblivious.Eq(key, uint64(publicN))
}

// secemb:secret id
func WrongParam(id uint64) {
	audited(0, int(id)) // want `obliviouslint/call: secret-tainted argument passed to non-secret parameter "publicN" of audited`
	audited(id, 4)      // ok: flows into the declared secret parameter
}

// reveal propagates taint through its annotated return.
//
// secemb:secret x return
func reveal(x uint64) uint64 { return x }

// secemb:secret id
func ThroughReturn(id uint64) {
	y := reveal(id)
	if y > 0 { // want `obliviouslint/branch: branch condition depends on secret-tainted value`
	}
}

// secemb:secret id
func Indirect(id uint64, f func(uint64)) {
	f(id) // want `obliviouslint/call: secret-tainted argument in indirect call`
}

// secemb:secret id
func OnChannel(id uint64, ch chan uint64) {
	ch <- id // want `obliviouslint/chan: secret-tainted value sent on a channel`
}

// sinkFn is directive-whitelisted rather than package-whitelisted.
//
// secemb:sink
func sinkFn(v uint64) uint64 { return v &^ 1 }

// secemb:secret id
func DirectiveSink(id uint64) {
	_ = sinkFn(id) // ok: secemb:sink
}
