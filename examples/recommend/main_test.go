package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRecommendReport: the trained model beats a coin on held-out traffic,
// and the deployed hybrid pipeline answers all four requests with a click
// probability strictly between 0 and 1.
func TestRecommendReport(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("run returned %d\n%s", code, out.String())
	}
	report := out.String()

	acc := regexp.MustCompile(`test accuracy: (\d+\.\d)%`).FindStringSubmatch(report)
	if acc == nil {
		t.Fatalf("no accuracy line\n%s", report)
	}
	if a, _ := strconv.ParseFloat(acc[1], 64); a <= 50 || a > 100 {
		t.Errorf("test accuracy %.1f%%, want above 50%%\n%s", a, report)
	}

	probs := regexp.MustCompile(`request \d: click probability (\S+) `).FindAllStringSubmatch(report, -1)
	if len(probs) != 4 {
		t.Fatalf("found %d click probabilities, want 4\n%s", len(probs), report)
	}
	for _, m := range probs {
		if p, err := strconv.ParseFloat(m[1], 64); err != nil || p <= 0 || p >= 1 {
			t.Errorf("click probability %q is not in (0, 1)", m[1])
		}
	}
}
