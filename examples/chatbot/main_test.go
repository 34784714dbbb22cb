package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestChatbotSmoke: the demo runs to the end, finetuning lowers the
// held-out perplexity, and both generations produce tokens.
func TestChatbotSmoke(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("run returned %d\n%s", code, out.String())
	}
	report := out.String()

	ppl := regexp.MustCompile(`perplexity (?:before|after) finetuning: +(\d+\.\d)`).FindAllStringSubmatch(report, -1)
	if len(ppl) != 2 {
		t.Fatalf("found %d perplexity lines, want 2\n%s", len(ppl), report)
	}
	before, _ := strconv.ParseFloat(ppl[0][1], 64)
	after, _ := strconv.ParseFloat(ppl[1][1], 64)
	if after >= before {
		t.Errorf("perplexity %.1f after finetuning, %.1f before: finetuning did not help", after, before)
	}
	for _, line := range []string{"generated tokens: [", "model reply ids:  [", "decoded locally:  "} {
		if !strings.Contains(report, line) {
			t.Errorf("no %q line\n%s", line, report)
		}
	}
}
