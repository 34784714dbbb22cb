package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"secemb/internal/obs"
)

// Persisted planner cost model. The planner's crossover model is seeded
// from analytic priors and refined by observed per-(shard, technique)
// latency/batch EWMAs; those curves are machine-dependent the same way the
// kernel tune is (they embed this host's memory bandwidth and core count),
// so they persist under the same machine-fingerprint discipline as
// MachineTune: save alongside the tune file, reload on start when the
// fingerprint matches, silently re-warm from priors when it does not.
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
// fingerprint matches this machine; installed reports whether it did. Like
// InstallTuneFile, a missing file is not an error and a fingerprint
// mismatch skips (the planner warms from analytic priors instead), logged
// and counted under kind="costmodel". reg may be nil.
func InstallCostModelFile(path string, reg *obs.Registry) (m CostModel, installed bool, err error) {
	return installFile(path, "costmodel", reg, LoadCostModel)
}
