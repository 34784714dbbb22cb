// Package cli is the flag contract every command in this module shares.
// Table shape, batch caps and thresholds are public configuration, so a
// bad value stops at the command line: a numeric flag states its bounds
// where it is defined (Bounded), Parse turns any bad flag into exit 2 and
// one stderr line naming it, and Sweep runs a command at and past the
// bounds of every numeric flag it defines.
package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

type number interface {
	int | int64 | float64 | time.Duration
}

// bounded is a numeric flag.Value that refuses values below min, and
// above *max when max is set.
type bounded[T number] struct {
	p, max *T
	min    T
}

// Bounded defines a numeric flag on fs, stored in p and starting at value,
// whose values below min, or above the optional max, are usage errors. A
// strict bound is stated as the smallest value past it (1,
// time.Nanosecond, math.SmallestNonzeroFloat64). A numeric flag with no
// lower bound is defined with package flag and says "any value" in its
// usage instead.
func Bounded[T number](fs *flag.FlagSet, p *T, name string, value, min T, usage string, max ...T) {
	*p = value
	b := &bounded[T]{p: p, min: min}
	if len(max) > 0 {
		b.max = &max[0]
	}
	fs.Var(b, name, usage)
}

func (b *bounded[T]) String() string {
	if b.p == nil { // the zero Value flag.PrintDefaults makes
		var zero T
		return fmt.Sprint(zero)
	}
	return fmt.Sprint(*b.p)
}

func (b *bounded[T]) Set(s string) error {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *int64: // base 0, as package flag parses its own ints
		*p, err = strconv.ParseInt(s, 0, 64)
	case *int:
		var n int64
		n, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(n)
	}
	switch {
	case err != nil:
		return err
	case !(v >= b.min): // NaN too
		return fmt.Errorf("must be at least %v", b.min)
	case b.max != nil && v > *b.max:
		return fmt.Errorf("must be at most %v", *b.max)
	}
	*b.p = v
	return nil
}

// edges returns the values Sweep runs: the minimum, and those the flag
// must refuse: min−1, 0 and −1 where below min, and max+1.
func (b *bounded[T]) edges() (at string, refused []string) {
	for _, v := range []T{b.min - 1, 0, -1} {
		if s := fmt.Sprint(v); v < b.min && !slices.Contains(refused, s) {
			refused = append(refused, s)
		}
	}
	if b.max != nil {
		refused = append(refused, fmt.Sprint(*b.max+1))
	}
	return fmt.Sprint(b.min), refused
}

// flagSink is the stderr Sweep hands a command's run to learn its flags:
// Parse records the FlagSet in it and stops the run.
type flagSink struct {
	io.Writer
	fs *flag.FlagSet
}

// Parse parses args into fs, a flag.ContinueOnError set. A bad flag
// (unknown, malformed or out of its bounds) prints one line naming it to
// stderr, in package flag's format; -h prints the usage. ok reports
// whether the command goes on; when it does not, code is its exit status:
// 0 after -h, 2 after a bad flag.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	if sink, isSink := stderr.(*flagSink); isSink {
		sink.fs = fs
		return 0, false
	}
	usage := fs.Usage
	fs.Usage = func() {} // package flag prints the error line, then the usage
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	fs.Usage = usage
	switch {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		usage()
		return 0, false
	}
	return 2, false
}

// Sweep runs a command in process at the edges of every numeric flag its
// run parses, after prefix (the command's fast-run flags). Each value a
// Bounded flag refuses must exit 2 with one stderr line naming the flag,
// and its minimum must not exit 2 (a run-time gate may still exit 1). An
// unbounded numeric flag must say "any value" in its usage and exit 0 at 0
// and −1. No run may panic, and no large value is run.
func Sweep(t *testing.T, run func(args []string, stdout, stderr io.Writer) int, prefix ...string) {
	sink := &flagSink{Writer: io.Discard}
	if run(nil, io.Discard, sink); sink.fs == nil {
		t.Fatal("run does not parse its flags with cli.Parse")
	}
	sink.fs.VisitAll(func(f *flag.Flag) {
		var at string
		var refused, free []string
		switch v := f.Value.(type) {
		case interface{ edges() (string, []string) }:
			at, refused = v.edges()
		case flag.Getter:
			switch v.Get().(type) {
			case int, int64, float64:
				free = []string{"0", "-1"}
			case time.Duration:
				free = []string{"0s", "-1ns"}
			default:
				return // not numeric
			}
			if !strings.Contains(f.Usage, "any value") {
				t.Errorf("-%s: an unbounded numeric flag must say \"any value\" in its usage", f.Name)
			}
		default:
			return
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Errorf("-%s: default %s: %v", f.Name, f.DefValue, err)
		}
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			call := func(value string) (code int, stderr string) {
				args := append(slices.Clone(prefix), "-"+f.Name, value)
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%q panicked: %v", args, p)
					}
				}()
				var errw bytes.Buffer
				return run(args, io.Discard, &errw), errw.String()
			}
			for _, v := range refused {
				code, stderr := call(v)
				if lines := strings.Split(strings.TrimSpace(stderr), "\n"); code != 2 || len(lines) != 1 ||
					!strings.Contains(lines[0], "-"+f.Name+":") {
					t.Errorf("-%s %s: exit %d, stderr %q; want 2 and one line naming the flag", f.Name, v, code, stderr)
				}
			}
			if at != "" {
				if code, stderr := call(at); code == 2 {
					t.Errorf("-%s %s, its minimum: exit 2, stderr %q", f.Name, at, stderr)
				}
			}
			for _, v := range free {
				if code, stderr := call(v); code != 0 {
					t.Errorf("-%s %s, no bound: exit %d, stderr %q", f.Name, v, code, stderr)
				}
			}
		})
	})
}
