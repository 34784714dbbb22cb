package cli

import (
	"bytes"
	"flag"
	"math"
	"strings"
	"testing"
	"time"
)

func testFlags() (*flag.FlagSet, *int, *float64, *time.Duration) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	var n int
	var f float64
	var d time.Duration
	Bounded(fs, &n, "n", 4, 1, "count", 8)
	Bounded(fs, &f, "f", 0.5, math.SmallestNonzeroFloat64, "scale")
	Bounded(fs, &d, "d", time.Second, 0, "wait")
	return fs, &n, &f, &d
}

func TestParseBounds(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		ok   bool
		line string // the one stderr line, or "" for none
	}{
		{nil, 0, true, ""},
		{[]string{"-n", "1", "-n", "0x8", "-f", "5e-324", "-d", "0s"}, 0, true, ""},
		{[]string{"-n", "0"}, 2, false, `invalid value "0" for flag -n: must be at least 1`},
		{[]string{"-n", "9"}, 2, false, `invalid value "9" for flag -n: must be at most 8`},
		{[]string{"-n", "x"}, 2, false, "-n:"},
		{[]string{"-f", "0"}, 2, false, "-f: must be at least 5e-324"},
		{[]string{"-f", "NaN"}, 2, false, "-f: must be at least"},
		{[]string{"-d", "-1ns"}, 2, false, "-d: must be at least 0s"},
		{[]string{"-d", "1"}, 2, false, "-d:"},
		{[]string{"-nope"}, 2, false, "flag provided but not defined: -nope"},
	} {
		fs, _, _, _ := testFlags()
		var stderr bytes.Buffer
		code, ok := Parse(fs, c.args, &stderr)
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		if code != c.code || ok != c.ok || (c.line == "") != (stderr.Len() == 0) ||
			len(lines) != 1 || !strings.Contains(lines[0], c.line) {
			t.Errorf("Parse(%q) = %d, %v, stderr %q; want %d, %v and one line holding %q",
				c.args, code, ok, stderr.String(), c.code, c.ok, c.line)
		}
	}
}

func TestParseStoresAndHelps(t *testing.T) {
	fs, n, f, d := testFlags()
	if _, ok := Parse(fs, []string{"-n", "3", "-f", "2.5", "-d", "3ms"}, &bytes.Buffer{}); !ok || *n != 3 || *f != 2.5 || *d != 3*time.Millisecond {
		t.Fatalf("parsed n=%d f=%g d=%v", *n, *f, *d)
	}
	fs, _, _, _ = testFlags()
	var stderr bytes.Buffer
	if code, ok := Parse(fs, []string{"-h"}, &stderr); code != 0 || ok || !strings.Contains(stderr.String(), "-n value") ||
		!strings.Contains(stderr.String(), "(default 4)") {
		t.Fatalf("-h: %d, %v, usage %q", code, ok, stderr.String())
	}
}
