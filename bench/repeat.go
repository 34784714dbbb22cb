package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// repeatRow is one (workload, metric) comparison, also written to
// bench/out/repeat.json so the measured difference sits next to its bound.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Worse    float64 `json:"worse"` // how much worse the second set is, as a share of the first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// repeatRuns is how many runs each set makes of each workload; a set's
// value is their median.
const repeatRuns = 3

// runRepeat measures the same code twice and fails when the two sets
// disagree by more than a metric's own bound in either direction: a
// benchmark that cannot reproduce itself cannot judge a change. The sets'
// runs alternate (A B A B …, as paired runs of a parent and a change
// would), so that a slow minute on the host lands on both.
func runRepeat(ctx context.Context, c *config, sel []workload) error {
	// sets[set]["workload metric"] holds one value per run.
	sets := [2]map[string][]float64{{}, {}}
	for j := range sel {
		w := &sel[j]
		for r := 0; r < repeatRuns; r++ {
			for i := range sets {
				e2e, err := runE2E(ctx, c.secembd, w, c.seed, c.measure(), true)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if e2e.Failed > 0 {
					return fmt.Errorf("%s: %d of %d requests failed: %v", w.Name, e2e.Failed, e2e.Attempted, e2e.FirstErr)
				}
				for _, m := range e2e.EndToEnd {
					key := w.Name + " " + m.Name
					sets[i][key] = append(sets[i][key], m.Value)
				}
			}
			fmt.Printf("%s: pair %d of %d done\n", w.Name, r+1, repeatRuns)
		}
	}

	var rows []repeatRow
	disagree := 0
	for _, w := range sel {
		for _, m := range endToEnd {
			key := w.Name + " " + m.Name
			first, second := median(sets[0][key]), median(sets[1][key])
			row := repeatRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, First: first, Second: second, Bound: m.Bound}
			row.Worse = (second - first) / first
			if m.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.Within = row.Worse <= row.Bound && row.Worse >= -row.Bound
			if !row.Within {
				disagree++
			}
			rows = append(rows, row)
			fmt.Printf("%-12s %-16s %14.4f %14.4f %-6s %+7.2f%% of ±%.1f%%  %s\n", row.Workload, row.Metric,
				row.First, row.Second, row.Unit, 100*row.Worse, 100*row.Bound, map[bool]string{true: "ok", false: "DISAGREE"}[row.Within])
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.outDir(), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.outDir(), "repeat.json"), append(out, '\n'), 0o644); err != nil {
		return err
	}
	if disagree > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two sets of the same code by more than their bound", disagree)
	}
	return nil
}
