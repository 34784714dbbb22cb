package experiments

import (
	"os"
	"strings"
	"testing"
)

// modelPricedIDs are the reports whose full-grid output is reproducible to
// the byte: no wall clock, no training.
var modelPricedIDs = []string{
	"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig15", "tableVI", "tableVII", "tableVIII", "llm-memory",
	"ext-quant",
}

// committedSection returns one report's block of ../../results_full.txt:
// from its "== id: " header up to the blank line that ends it.
func committedSection(t *testing.T, all, id string) string {
	t.Helper()
	start := strings.Index(all, "== "+id+": ")
	if start < 0 {
		t.Fatalf("results_full.txt has no %s section", id)
	}
	end := strings.Index(all[start:], "\n\n")
	if end < 0 {
		return all[start:]
	}
	return all[start : start+end+1]
}

// TestModelPricedReportsMatchCommitted is the golden gate for the cost
// model: any change to a price, an operation count or a threshold finder
// shows up here as a diff against the committed full-grid results.
func TestModelPricedReportsMatchCommitted(t *testing.T) {
	raw, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range modelPricedIDs {
		got := ByID(id)(false).Render()
		if want := committedSection(t, string(raw), id); got != want {
			t.Errorf("%s drifted from results_full.txt\n--- got\n%s--- want\n%s", id, got, want)
		}
	}
}
