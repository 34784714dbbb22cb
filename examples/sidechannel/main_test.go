package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSidechannelReport: the paper's security demo shows what it claims.
// Every cache and page-fault attack recovers the victim's index exactly,
// the DRAM row-buffer window holds it, the scan's latency profile is flat,
// and in the trace measurement the non-secure lookup leaks all 4 bits of
// the 16 secrets while Linear Scan, Circuit ORAM and DHE leak none.
func TestSidechannelReport(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out); code != 0 {
		t.Fatalf("run returned %d\n%s", code, out.String())
	}
	report := out.String()

	guesses := regexp.MustCompile(`victim queried index +(\d+) → (?:attacker's guess from probe latencies: +|recovered )(\d+)`).FindAllStringSubmatch(report, -1)
	if len(guesses) != 4 {
		t.Fatalf("found %d attack results, want 3 cache attacks and 1 combined attack\n%s", len(guesses), report)
	}
	for _, g := range guesses {
		if g[1] != g[2] {
			t.Errorf("victim queried %s, attacker guessed %s", g[1], g[2])
		}
	}
	if !strings.Contains(report, "latency profile flat = true") {
		t.Errorf("the linear scan's latency profile is not flat\n%s", report)
	}
	window := regexp.MustCompile(`victim queried index (\d+) → localized to window \[(\d+), (\d+)\)`).FindStringSubmatch(report)
	if window == nil {
		t.Fatalf("no DRAM row-buffer result\n%s", report)
	}
	secret, _ := strconv.Atoi(window[1])
	lo, _ := strconv.Atoi(window[2])
	hi, _ := strconv.Atoi(window[3])
	if secret < lo || secret >= hi {
		t.Errorf("DRAM window [%d, %d) does not hold index %d", lo, hi, secret)
	}

	leaks := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^(.+?) +(\d+\.\d{3})$`).FindAllStringSubmatch(report, -1) {
		leaks[m[1]] = m[2]
	}
	for tech, want := range map[string]string{
		"Index Lookup (non-secure)": "4.000",
		"Linear Scan":               "0.000",
		"Circuit ORAM":              "0.000",
		"DHE":                       "0.000",
	} {
		if leaks[tech] != want {
			t.Errorf("%s leaked %q bits, want %s (parsed %v)", tech, leaks[tech], want, leaks)
		}
	}
}
