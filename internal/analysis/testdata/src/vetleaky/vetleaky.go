// Fixture: the vet-dirty counterpart of leaky — taint leaks and variable
// shadowing in one tree, exercising the combined obliviouslint +
// strict-vet run off the happy path.
package vetleaky

import "fmt"

// secemb:secret id
func ShadowedAccumulate(table []float32, id int) float32 {
	acc := float32(0)
	for i := 0; i < len(table); i++ {
		if i == id { // want `obliviouslint/branch: branch condition depends on secret-tainted value`
			acc := table[i] // want `vet/shadow: declaration of "acc" shadows declaration at line 10`
			_ = acc
		}
	}
	return acc
}

// secemb:secret id
func DroppedTrace(id uint64) {
	fmt.Sprintf("id=%d", id) // want `obliviouslint/call: secret-tainted argument escapes into unannotated function Sprintf`
}
