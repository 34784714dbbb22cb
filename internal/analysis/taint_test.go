package analysis

import (
	"strings"
	"testing"
)

const fixtureRoot = "testdata/src"

func TestObliviouslintBranch(t *testing.T) {
	RunFixture(t, fixtureRoot, "branch", Obliviouslint())
}

func TestObliviouslintIndex(t *testing.T) {
	RunFixture(t, fixtureRoot, "index", Obliviouslint())
}

func TestObliviouslintLoop(t *testing.T) {
	RunFixture(t, fixtureRoot, "loop", Obliviouslint())
}

func TestObliviouslintCall(t *testing.T) {
	RunFixture(t, fixtureRoot, "call", Obliviouslint())
}

func TestObliviouslintDeclass(t *testing.T) {
	RunFixture(t, fixtureRoot, "declass", Obliviouslint())
}

func TestObliviouslintAlloc(t *testing.T) {
	RunFixture(t, fixtureRoot, "alloc", Obliviouslint())
}

func TestObliviouslintMapKey(t *testing.T) {
	RunFixture(t, fixtureRoot, "mapkey", Obliviouslint())
}

func TestObliviouslintChan(t *testing.T) {
	RunFixture(t, fixtureRoot, "chan", Obliviouslint())
}

func TestObliviouslintDrift(t *testing.T) {
	RunFixture(t, fixtureRoot, "drift", Obliviouslint())
}

// TestInterproceduralTeeth is the acceptance check for the summary engine:
// a secret-indexed lookup two calls below the audit root, in unannotated
// helpers, must be reported at the real leak site — which the old
// intraprocedural engine provably never saw (it stopped with a blanket
// obliviouslint/call at the root's call, which must now be gone).
func TestInterproceduralTeeth(t *testing.T) {
	res := RunFixture(t, fixtureRoot, "interproc", Obliviouslint())
	foundInHelper := false
	for _, d := range res.Findings {
		if d.Rule == RuleCall {
			t.Errorf("old-engine blanket call finding survived at a summarized call: %s", d)
		}
		if d.Rule == RuleIndex && strings.Contains(d.Message, `parameter "i" of gather`) {
			foundInHelper = true
		}
	}
	if !foundInHelper {
		t.Error("secret-indexed lookup two calls below the audit root was not reported inside the unannotated helper")
	}
}

// The flush fixture is the serving-batcher guard: a coalescer whose flush
// policy inspects the ids it fuses must be flagged (the §V-B scheduler
// invariant), while the count-only policy stays clean.
func TestObliviouslintFlushPolicy(t *testing.T) {
	res := RunFixture(t, fixtureRoot, "flush", Obliviouslint())
	if len(res.Findings) == 0 {
		t.Fatal("id-dependent flush policies produced no findings; the checker has lost its teeth")
	}
}

// The plan fixture is the adaptive-planner guard: a technique plan indexed
// by a secret id or a re-plan triggered by a specific id must be flagged
// (the internal/planner public-signal invariant), while the
// shape-and-EWMA-only policy stays clean.
func TestObliviouslintPlanPolicy(t *testing.T) {
	res := RunFixture(t, fixtureRoot, "plan", Obliviouslint())
	if len(res.Findings) == 0 {
		t.Fatal("secret-dependent plan policies produced no findings; the checker has lost its teeth")
	}
}

func TestObliviouslintLeakyFixture(t *testing.T) {
	res := RunFixture(t, fixtureRoot, "leaky", Obliviouslint())
	if len(res.Findings) == 0 {
		t.Fatal("leaky fixture produced no findings; the checker has lost its teeth")
	}
}

// The public fixture has no want comments: every finding RunFixture sees is
// an error, so this test is the false-positive guard for len/cap, nil
// comparisons, range positions, and heap laundering.
func TestObliviouslintPublicQuantities(t *testing.T) {
	res := RunFixture(t, fixtureRoot, "public", Obliviouslint())
	if len(res.Waived) != 0 {
		t.Errorf("public fixture has no waivers, got %d waived findings", len(res.Waived))
	}
}

func TestObliviouslintWaivers(t *testing.T) {
	pkg, idx, err := LoadDir(fixtureRoot+"/waived", "waived", fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*Analyzer{Obliviouslint()}, []*Package{pkg}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Waived); got != 2 {
		t.Errorf("want 2 waived findings (Checked, Trailing), got %d: %v", got, res.Waived)
	}
	for _, d := range res.Waived {
		if d.Waiver == "" {
			t.Errorf("waived finding lost its rationale: %s", d)
		}
	}
	// Unwaived: NoRationale's branch (line 26), WrongRule's branch (line
	// 33), and the stale wrong-rule waiver itself (line 32).
	var branches, stale []Diagnostic
	for _, d := range res.Findings {
		switch d.Rule {
		case RuleBranch:
			branches = append(branches, d)
		case RuleDirective:
			stale = append(stale, d)
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if len(branches) != 2 {
		t.Errorf("want 2 unwaived branch findings, got %d: %v", len(branches), branches)
	}
	if len(stale) != 1 {
		t.Fatalf("want 1 stale-waiver finding, got %d: %v", len(stale), stale)
	}
	if d := stale[0]; d.Pos.Line != 32 || !strings.Contains(d.Message, "stale waiver: //lint:allow obliviouslint/index") {
		t.Errorf("stale-waiver finding wrong: %s", d)
	}
}

// Malformed directives are asserted directly: a want comment cannot share a
// line with a secemb:secret directive (the parser would read the want text
// as parameter names).
func TestObliviouslintMalformedDirectives(t *testing.T) {
	pkg, idx, err := LoadDir(fixtureRoot+"/directive", "directive", fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*Analyzer{Obliviouslint()}, []*Package{pkg}, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 2 {
		t.Fatalf("want 2 directive findings, got %d: %v", len(res.Findings), res.Findings)
	}
	for _, d := range res.Findings {
		if d.Rule != RuleDirective {
			t.Errorf("want rule %s, got %s", RuleDirective, d.Rule)
		}
	}
	if !strings.Contains(res.Findings[0].Message, "needs parameter names") {
		t.Errorf("empty directive: got %q", res.Findings[0].Message)
	}
	if !strings.Contains(res.Findings[1].Message, `unknown parameter "nosuch"`) {
		t.Errorf("unknown param: got %q", res.Findings[1].Message)
	}
	if idx.funcs["directive.WellFormed"] == nil {
		t.Error("well-formed directive was not indexed")
	}
}

// LoadModule smoke test: enumerate and type-check a real module package
// (with stdlib deps) through the go list -export path.
func TestLoadModuleRealPackage(t *testing.T) {
	set, err := LoadModule("../..", "./internal/oram")
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Targets) != 1 {
		t.Fatalf("want 1 target package, got %d", len(set.Targets))
	}
	if got := set.Targets[0].Path; got != "secemb/internal/oram" {
		t.Errorf("target path = %q", got)
	}
	if set.Targets[0].Types.Scope().Lookup("NewPath") == nil {
		t.Error("type info incomplete: NewPath not in package scope")
	}
}
