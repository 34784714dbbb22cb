// Command obliviouslint runs the static secret-independence checker
// (internal/analysis) over the module and writes JSON and SARIF findings
// reports. It is the compile-time counterpart of cmd/leakcheck: functions
// annotated `// secemb:secret <param>` are taint roots, and every branch,
// index, loop bound, allocation, map key, channel crossing, shift amount,
// call or return that depends on a tainted value is a finding unless
// covered by a reviewed `//lint:allow <rule> <rationale>` waiver. Taint is
// tracked interprocedurally: calls into unannotated functions are resolved
// through bottom-up call-graph summaries, so a leak buried in a helper
// several frames below the audit root is reported at the real leak site.
// CI runs it on every PR; an unwaived finding blocks merges the same way a
// trace divergence from leakcheck does.
//
// Usage:
//
//	obliviouslint [-C dir] [-vet] [-v] [-json report.json] [-sarif report.sarif] [packages...]
//	obliviouslint -summaries [packages...]   (dump the interprocedural taint summaries)
//
// Packages are `go list` patterns in the module at -C (default ./...).
// ./... skips testdata, so an analyzer fixture is linted by its explicit
// path, e.g. ./internal/analysis/testdata/src/leaky.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"secemb/internal/analysis"
	"secemb/internal/cli"
)

// fileReport is the JSON artifact schema, mirroring leakcheck's.
type fileReport struct {
	Packages []string              `json:"packages"`
	OK       bool                  `json:"ok"`
	Findings []analysis.Diagnostic `json:"findings"`
	Waived   []analysis.Diagnostic `json:"waived"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obliviouslint", flag.ContinueOnError)
	moduleDir := fs.String("C", ".", "module directory to lint")
	vet := fs.Bool("vet", false, "also run the strict-vet shadow analyzer")
	verbose := fs.Bool("v", false, "print waived findings too")
	out := fs.String("json", "", "JSON report path (empty: skip)")
	sarifOut := fs.String("sarif", "", "SARIF 2.1.0 report path (empty: skip)")
	summaries := fs.Bool("summaries", false, "dump the interprocedural taint summaries instead of linting")
	if code, ok := cli.Parse(fs, args, stderr); !ok {
		return code
	}

	analyzers := []*analysis.Analyzer{analysis.Obliviouslint()}
	if *vet {
		analyzers = append(analyzers, analysis.Shadow())
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	set, err := analysis.LoadModule(*moduleDir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "obliviouslint:", err)
		return 2
	}
	prog := set.Program()
	relBase, _ := filepath.Abs(*moduleDir) // "" on error: positions stay absolute

	if *summaries {
		dumpSummaries(stdout, prog, relBase)
		return 0
	}

	res, err := analysis.RunProgram(analyzers, prog)
	if err != nil {
		fmt.Fprintln(stderr, "obliviouslint:", err)
		return 2
	}
	// Report positions relative to the module root: the committed report
	// stays byte-identical across checkouts, and SARIF needs repo-relative
	// URIs for code scanning.
	relativize(relBase, res.Findings)
	relativize(relBase, res.Waived)

	report := fileReport{OK: len(res.Findings) == 0, Findings: res.Findings, Waived: res.Waived}
	for _, p := range set.Targets {
		report.Packages = append(report.Packages, p.Path)
	}
	if report.Findings == nil {
		report.Findings = []analysis.Diagnostic{}
	}
	if report.Waived == nil {
		report.Waived = []analysis.Diagnostic{}
	}

	for _, d := range res.Findings {
		fmt.Fprintln(stdout, d)
	}
	if *verbose {
		for _, d := range res.Waived {
			fmt.Fprintln(stdout, d)
		}
	}

	if *out != "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "obliviouslint:", err)
			return 2
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "obliviouslint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "report: %s\n", *out)
	}
	if *sarifOut != "" {
		enc, err := analysis.SARIF(res)
		if err != nil {
			fmt.Fprintln(stderr, "obliviouslint:", err)
			return 2
		}
		if err := os.WriteFile(*sarifOut, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, "obliviouslint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "sarif: %s\n", *sarifOut)
	}

	fmt.Fprintf(stdout, "obliviouslint: %d package(s), %d finding(s), %d waived\n",
		len(set.Targets), len(res.Findings), len(res.Waived))
	if len(res.Findings) > 0 {
		fmt.Fprintln(stderr, "obliviouslint: FAILED — fix the findings or add a reviewed //lint:allow waiver")
		return 1
	}
	return 0
}

// relativize rewrites absolute diagnostic paths to be base-relative (and
// slash-separated) when base is set and the path lies under it.
func relativize(base string, ds []analysis.Diagnostic) {
	if base == "" {
		return
	}
	for i := range ds {
		if !filepath.IsAbs(ds[i].Pos.Filename) {
			continue
		}
		if rel, err := filepath.Rel(base, ds[i].Pos.Filename); err == nil {
			ds[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// dumpSummaries prints the interprocedural taint summaries: for every
// unannotated function, which parameter slots propagate taint to results
// and which conditional leak sites fire when a slot receives a secret.
func dumpSummaries(w io.Writer, prog *analysis.Program, relBase string) {
	for _, s := range prog.Summaries() {
		slots := s.Params
		if s.Recv != nil {
			slots = append([]*analysis.ParamSummary{s.Recv}, slots...)
		}
		printed := false
		for _, p := range slots {
			if p == nil {
				continue
			}
			leaks := p.Leaks()
			if !p.Result && len(leaks) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "%s:\n", s.Key())
				printed = true
			}
			fmt.Fprintf(w, "  %q: result=%v leaks=%d\n", p.Name, p.Result, len(leaks))
			relativize(relBase, leaks)
			for _, d := range leaks {
				fmt.Fprintf(w, "    %s\n", d)
			}
		}
	}
}
