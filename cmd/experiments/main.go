// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments              # run everything in quick mode
//	experiments -full        # full grids and training lengths
//	experiments -only fig4   # one experiment (see -list)
//	experiments -list        # list experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"secemb/internal/cli"
	"secemb/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	full := fs.Bool("full", false, "run full grids and training lengths")
	only := fs.String("only", "", "run a single experiment by id")
	list := fs.Bool("list", false, "list experiment ids and exit")
	out := fs.String("out", "", "also write the rendered reports to this file")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	// -only resolves before -out is created, so a typo leaves the file alone.
	var one func(quick bool) experiments.Report
	if *only != "" {
		if one = experiments.ByID(*only); one == nil {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *only)
			return 2
		}
	}

	sink := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		sink = io.MultiWriter(stdout, f)
	}
	quick := !*full
	if one != nil {
		fmt.Fprintln(sink, one(quick).Render())
		return 0
	}
	for _, r := range experiments.All(quick) {
		fmt.Fprintln(sink, r.Render())
	}
	return 0
}
