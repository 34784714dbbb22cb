// Fixture: div-class findings — integer division of a secret by a divisor
// the compiler cannot turn into a multiply and a shift, so a DIV
// instruction, whose latency depends on its operands, sees the secret.
package div

// secemb:secret id return
func Bucket(id, m uint64) uint64 {
	return id % m // want `obliviouslint/div: integer % of a secret-tainted value by a non-constant divisor`
}

// secemb:secret id return
func ByID(n, id uint64) uint64 {
	return n / (id | 1) // want `obliviouslint/div: integer / of a secret-tainted value by a non-constant divisor`
}

// secemb:secret id return
func Compound(id uint64, m uint64) uint64 {
	id /= m // want `obliviouslint/div: integer /= of a secret-tainted value by a non-constant divisor`
	return id
}

const buckets = 1_000_000

// ConstBucket is the clean counterpart: a constant divisor compiles to a
// multiply and a shift.
//
// secemb:secret id return
func ConstBucket(id uint64) uint64 {
	return id % buckets // ok
}

// Ratio divides floats, which this rule leaves alone.
//
// secemb:secret x return
func Ratio(x, y float64) float64 {
	return x / y // ok: not an integer division
}

// Public divides public values only.
func Public(n, m int) int {
	return n / m // ok: no secret operand
}
