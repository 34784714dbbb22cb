package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"secemb/internal/obs"
)

// Persisted planner cost model. The planner's crossover model is seeded
// from analytic priors and refined by observed per-(shard, technique)
// latency/batch EWMAs; those curves are machine-dependent the same way the
// kernel tune is (they embed this host's memory bandwidth and core count),
// so they persist under a machine fingerprint: reload on start when it
// matches, re-warm from priors when it does not.
// Everything in the file is public — shard labels are deployment topology,
// techniques are configuration, and the EWMAs aggregate batch sizes and
// clocks that never saw an id.

// CostEntry is one fitted EWMA stream: a technique observed on a shard.
type CostEntry struct {
	// Shard is the planner's shard label ("table/index").
	Shard string `json:"shard"`
	// Tech is the technique key (core.Technique.Key()).
	Tech string `json:"tech"`
	// EWMANs is the smoothed per-batch latency in nanoseconds.
	EWMANs float64 `json:"ewma_ns"`
	// EWMABatch is the smoothed batch size the latency was observed at.
	EWMABatch float64 `json:"ewma_batch"`
}

// CostModel is the serialized planner state plus the machine fingerprint
// it was measured on.
type CostModel struct {
	Fingerprint

	Entries []CostEntry `json:"entries"`
}

// NewCostModel stamps entries with this machine's fingerprint.
func NewCostModel(entries []CostEntry) CostModel {
	return CostModel{Fingerprint: currentFingerprint(), Entries: entries}
}

// LoadCostModel reads a model written by SaveCostModelFile, validating that
// every entry is a usable observation.
func LoadCostModel(r io.Reader) (CostModel, error) {
	var m CostModel
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return CostModel{}, fmt.Errorf("profile: decoding cost model: %w", err)
	}
	for _, e := range m.Entries {
		if e.Tech == "" {
			return CostModel{}, fmt.Errorf("profile: cost model entry %+v missing technique", e)
		}
		if e.EWMANs <= 0 || math.IsNaN(e.EWMANs) || math.IsInf(e.EWMANs, 0) ||
			e.EWMABatch < 0 || math.IsNaN(e.EWMABatch) || math.IsInf(e.EWMABatch, 0) {
			return CostModel{}, fmt.Errorf("profile: cost model entry %+v has out-of-range EWMAs", e)
		}
	}
	return m, nil
}

// SaveCostModelFile writes the model to path as JSON.
func SaveCostModelFile(path string, m CostModel) error { return saveJSONFile(path, m) }

// LoadCostModelFile reads a cost model from disk.
func LoadCostModelFile(path string) (CostModel, error) { return loadFile(path, LoadCostModel) }

// InstallCostModelFile loads path and returns the model when its
// fingerprint matches this machine; installed reports whether it did. A
// missing file is not an error — the planner warms from analytic priors —
// and neither is a mismatch, but a mismatch is never silent: it is logged
// and counted (profile_install_skipped_total{kind="costmodel",
// reason="fingerprint"} in reg, which may be nil) so an operator can tell
// a stale file from a loaded one and a dashboard can alert on a fleet
// quietly re-warming every start.
func InstallCostModelFile(path string, reg *obs.Registry) (m CostModel, installed bool, err error) {
	m, err = LoadCostModelFile(path)
	if os.IsNotExist(err) {
		return CostModel{}, false, nil
	}
	if err != nil {
		return CostModel{}, false, err
	}
	if !m.Matches() {
		now := currentFingerprint()
		log.Printf("profile: skipping costmodel file %s: machine fingerprint mismatch (recorded GOMAXPROCS=%d NumCPU=%d, running GOMAXPROCS=%d NumCPU=%d)",
			path, m.GOMAXPROCS, m.NumCPU, now.GOMAXPROCS, now.NumCPU)
		reg.Counter("profile_install_skipped_total", "kind", "costmodel", "reason", "fingerprint").Inc()
		return CostModel{}, false, nil
	}
	return m, true, nil
}
