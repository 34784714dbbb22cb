package profile_test

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/planner"
	"secemb/internal/profile"
)

// goldenCostModel is a cost model as secembd -plan-file saves it.
const goldenCostModel = "testdata/costmodel.json"

var goldenCostModelValue = profile.CostModel{
	Fingerprint: profile.Fingerprint{GOMAXPROCS: 2, NumCPU: 2},
	Entries: []profile.CostEntry{
		{Shard: "embed/0", Tech: "scanb", EWMANs: 2.5e6, EWMABatch: 2},
		{Shard: "embed/0", Tech: "dhe", EWMANs: 9.125e6, EWMABatch: 256},
		{Shard: "embed/1", Tech: "circuit", EWMANs: 1.75e5, EWMABatch: 0.5},
	},
}

// TestGoldenCostModelFile pins the file format -plan-file reads at startup:
// the committed file loads to known entries, and saving them again
// reproduces it byte for byte.
func TestGoldenCostModelFile(t *testing.T) {
	want, err := os.ReadFile(goldenCostModel)
	if err != nil {
		t.Fatal(err)
	}
	m, err := profile.LoadCostModelFile(goldenCostModel)
	if err != nil || !reflect.DeepEqual(m, goldenCostModelValue) {
		t.Fatalf("golden file loads to %+v, want %+v (err %v)", m, goldenCostModelValue, err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := profile.SaveCostModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("saved as\n%s\nwant\n%s", got, want)
	}
}

// FuzzInstallCostModelFile: whatever bytes sit at -plan-file, startup
// either refuses them or loads a model that survives a save → load round
// trip unchanged; and a planner seeded with a loaded model survives a
// re-plan pass.
func FuzzInstallCostModelFile(f *testing.F) {
	golden, err := os.ReadFile(goldenCostModel)
	if err != nil {
		f.Fatal(err)
	}
	// Fuzzed fingerprints rarely match this machine; each skip is logged.
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)
	f.Add(golden)
	f.Add([]byte(`{"gomaxprocs":1,"numcpu":1,"entries":[{"shard":"embed/0","tech":"nosuch","ewma_ns":1,"ewma_batch":0}]}`))
	f.Add([]byte(`{"entries":[{"shard":"embed/9","tech":"dhe","ewma_ns":1e300,"ewma_batch":1e300}]}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "plan.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := profile.LoadCostModelFile(path)
		if _, _, ierr := profile.InstallCostModelFile(path, nil); (ierr == nil) != (err == nil) {
			t.Fatalf("load err %v, install err %v: they must agree", err, ierr)
		}
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.json")
		if err := profile.SaveCostModelFile(again, m); err != nil {
			t.Fatal(err)
		}
		if m2, err := profile.LoadCostModelFile(again); err != nil || !reflect.DeepEqual(m2, m) {
			t.Fatalf("round trip changed the model:\n%+v\n%+v (err %v)", m, m2, err)
		}

		const rows, dim = 64, 4
		build := func(_ int, tech core.Technique) (core.Generator, error) {
			return core.New(tech, rows, dim, core.Options{Seed: 1})
		}
		gen, err := build(0, core.LinearScanBatched)
		if err != nil {
			t.Fatal(err)
		}
		p := planner.New(planner.Config{MinDwell: time.Nanosecond})
		if err := p.Manage(planner.Table{
			Name: "embed", Rows: rows, Dim: dim, Initial: core.LinearScanBatched, Build: build,
			Shards: [][]*planner.Swappable{{planner.NewSwappable(gen)}},
		}); err != nil {
			t.Fatal(err)
		}
		p.SeedCostModel(m)
		p.ReplanNow()
	})
}
