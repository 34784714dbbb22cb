// Command profiler runs the offline profiling stage of Algorithm 2 on
// *this* machine: it measures linear-scan and DHE latency across table
// sizes for each execution configuration (wall-clock of this repository's
// implementations) and prints the resulting threshold database.
//
// The paper profiles per system ("done once per system for each embedding
// dimension", §IV-C1) — so these thresholds describe the host this runs
// on; cmd/experiments -only fig6 prints the paper-machine model instead.
//
// Usage:
//
//	profiler [-dim 16] [-kind varied] [-reps 5] [-batches 8,32,128] [-threads 1,4]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"secemb/internal/cli"
	"secemb/internal/profile"
)

// parseInts parses a comma list of positive integers (batch sizes or
// thread counts).
func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad positive integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("profiler", flag.ContinueOnError)
	var dim, reps int
	cli.Bounded(fs, &dim, "dim", 16, 1, "embedding dimension")
	kindFlag := fs.String("kind", "varied", "DHE sizing policy: uniform|varied")
	cli.Bounded(fs, &reps, "reps", 5, 1, "timing repetitions per point")
	batches := fs.String("batches", "8,32,128", "batch sizes to profile")
	threads := fs.String("threads", "1,4", "thread counts to profile")
	seed := fs.Int64("seed", 1, "PRNG seed (any value)")
	save := fs.String("save", "", "write the threshold DB to this JSON file")
	load := fs.String("load", "", "print a previously saved threshold DB instead of profiling")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if *load != "" {
		db, err := profile.LoadFile(*load)
		if err != nil {
			fmt.Fprintln(stderr, "-load:", err)
			return 2
		}
		fmt.Fprintf(stdout, "loaded threshold DB: dim=%d kind=%s\n", db.Dim, db.Kind)
		for _, cfg := range db.SortedConfigs() {
			fmt.Fprintf(stdout, "%5d  %7d  %d\n", cfg.Batch, cfg.Threads, db.Thresholds[cfg])
		}
		return 0
	}

	var kind profile.DHEKind
	switch *kindFlag {
	case "uniform":
		kind = profile.Uniform
	case "varied":
		kind = profile.Varied
	default:
		fmt.Fprintf(stderr, "-kind: must be uniform or varied, got %q\n", *kindFlag)
		return 2
	}
	bs, err := parseInts(*batches)
	if err != nil {
		fmt.Fprintln(stderr, "-batches:", err)
		return 2
	}
	ts, err := parseInts(*threads)
	if err != nil {
		fmt.Fprintln(stderr, "-threads:", err)
		return 2
	}
	sizes := profile.DefaultSizes()
	fmt.Fprintf(stdout, "profiling dim=%d kind=%s over sizes %v\n\n", dim, kind, sizes)

	db := profile.BuildDB(dim, kind, bs, ts, sizes, reps, *seed)
	fmt.Fprintln(stdout, "batch  threads  threshold (table size)")
	for _, cfg := range db.SortedConfigs() {
		fmt.Fprintf(stdout, "%5d  %7d  %d\n", cfg.Batch, cfg.Threads, db.Thresholds[cfg])
	}
	lo, hi := db.HybridRange()
	fmt.Fprintf(stdout, "\nhybrid range on this host: [%d, %d]\n", lo, hi)
	fmt.Fprintln(stdout, "tables below the range always use linear scan; above it, always DHE (Algorithm 3)")
	if *save != "" {
		if err := db.SaveFile(*save); err != nil {
			fmt.Fprintln(stderr, "-save:", err)
			return 1
		}
		fmt.Fprintf(stdout, "threshold DB saved to %s (reload with -load)\n", *save)
	}
	return 0
}
