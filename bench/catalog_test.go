package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkJSON is the pipeline's description of this benchmark. It is
// generated from the catalogue and the workload table, so the names the
// pipeline expects are the names the program prints.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func wantBenchmarkJSON() []byte {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.Name, w.Why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	want := wantBenchmarkJSON()
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; run `go test -run BenchmarkJSON -update` in bench/\n%s", want)
	}
}

func TestCatalogueKeepsThePipelineLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", d.Name, d.Unit, d.Better)
		}
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the pipeline's limits", n, len(endToEnd), len(perLayer))
	}
}

func TestCheckReport(t *testing.T) {
	full := []metric{{"a", 1, "ms"}, {"b", 2, "us"}}
	cat := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "us"}}
	if err := checkReport(full, cat); err != nil {
		t.Errorf("complete report rejected: %v", err)
	}
	for name, report := range map[string][]metric{
		"missing":    full[:1],
		"wrong unit": {{"a", 1, "s"}, {"b", 2, "us"}},
		"extra":      append([]metric{{"c", 3, "ms"}}, full...),
	} {
		if checkReport(report, cat) == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
}
