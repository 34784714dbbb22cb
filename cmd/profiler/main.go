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
	"os"
	"strconv"
	"strings"

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

// usageErr reports an operator input error on one line and exits 2.
func usageErr(flagName string, err error) {
	fmt.Fprintf(os.Stderr, "-%s: %v\n", flagName, err)
	os.Exit(2)
}

func main() {
	dim := flag.Int("dim", 16, "embedding dimension")
	kindFlag := flag.String("kind", "varied", "DHE sizing policy: uniform|varied")
	reps := flag.Int("reps", 5, "timing repetitions per point")
	batches := flag.String("batches", "8,32,128", "batch sizes to profile")
	threads := flag.String("threads", "1,4", "thread counts to profile")
	seed := flag.Int64("seed", 1, "PRNG seed")
	save := flag.String("save", "", "write the threshold DB to this JSON file")
	load := flag.String("load", "", "print a previously saved threshold DB instead of profiling")
	flag.Parse()

	if *dim < 1 {
		usageErr("dim", fmt.Errorf("must be at least 1, got %d", *dim))
	}
	if *reps < 1 {
		usageErr("reps", fmt.Errorf("must be at least 1, got %d", *reps))
	}

	if *load != "" {
		db, err := profile.LoadFile(*load)
		if err != nil {
			usageErr("load", err)
		}
		fmt.Printf("loaded threshold DB: dim=%d kind=%s\n", db.Dim, db.Kind)
		for _, cfg := range db.SortedConfigs() {
			fmt.Printf("%5d  %7d  %d\n", cfg.Batch, cfg.Threads, db.Thresholds[cfg])
		}
		return
	}

	var kind profile.DHEKind
	switch *kindFlag {
	case "uniform":
		kind = profile.Uniform
	case "varied":
		kind = profile.Varied
	default:
		usageErr("kind", fmt.Errorf("must be uniform or varied, got %q", *kindFlag))
	}
	bs, err := parseInts(*batches)
	if err != nil {
		usageErr("batches", err)
	}
	ts, err := parseInts(*threads)
	if err != nil {
		usageErr("threads", err)
	}
	sizes := profile.DefaultSizes()
	fmt.Printf("profiling dim=%d kind=%s over sizes %v\n\n", *dim, kind, sizes)

	db := profile.BuildDB(*dim, kind, bs, ts, sizes, *reps, *seed)
	fmt.Println("batch  threads  threshold (table size)")
	for _, cfg := range db.SortedConfigs() {
		fmt.Printf("%5d  %7d  %d\n", cfg.Batch, cfg.Threads, db.Thresholds[cfg])
	}
	lo, hi := db.HybridRange()
	fmt.Printf("\nhybrid range on this host: [%d, %d]\n", lo, hi)
	fmt.Println("tables below the range always use linear scan; above it, always DHE (Algorithm 3)")
	if *save != "" {
		if err := db.SaveFile(*save); err != nil {
			fmt.Fprintln(os.Stderr, "-save:", err)
			os.Exit(1)
		}
		fmt.Printf("threshold DB saved to %s (reload with -load)\n", *save)
	}
}
