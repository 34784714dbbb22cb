package analysis

import "testing"

func TestShadow(t *testing.T) {
	RunFixture(t, "shadow", Shadow())
}

// The strict-vet analyzer must stay quiet on the deliberately taint-leaky
// fixture (it is vet-clean by construction): every finding of the combined
// run must still be one of leaky's obliviouslint wants, with no vet noise
// on top.
func TestVetQuietOnLeakyFixture(t *testing.T) {
	res := RunFixture(t, "leaky", Obliviouslint(), Shadow())
	for _, d := range res.Findings {
		if d.Rule == RuleShadow {
			t.Errorf("vet finding on the vet-clean leaky fixture: %s", d)
		}
	}
}

// The vetleaky fixture is dirty under both analyzers at once: a
// secret-dependent branch, a live-after shadow, and a Sprintf that is a
// taint escape. The combined run must land every rule family at the
// annotated lines.
func TestVetLeakyFixture(t *testing.T) {
	res := RunFixture(t, "vetleaky", Obliviouslint(), Shadow())
	seen := map[string]bool{}
	for _, d := range res.Findings {
		seen[d.Rule] = true
	}
	for _, rule := range []string{RuleBranch, RuleCall, RuleShadow} {
		if !seen[rule] {
			t.Errorf("combined run missing a %s finding", rule)
		}
	}
}
