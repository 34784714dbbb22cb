package profile

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"secemb/internal/core"
)

func TestCrossingInterpolation(t *testing.T) {
	sizes := []int{100, 1000, 10000}
	// Scan rises, DHE flat at 50: crossing between 1000 and 10000.
	scan := []float64{10, 30, 300}
	dhe := []float64{50, 50, 50}
	thr := crossing(sizes, scan, dhe)
	if thr <= 1000 || thr >= 10000 {
		t.Fatalf("threshold %d outside bracketing interval", thr)
	}
	// Scan always slower → threshold at the smallest size.
	if got := crossing(sizes, []float64{60, 70, 80}, dhe); got != 100 {
		t.Fatalf("always-slower scan: threshold %d, want 100", got)
	}
	// Scan always faster → threshold at the largest size.
	if got := crossing(sizes, []float64{1, 2, 3}, dhe); got != 10000 {
		t.Fatalf("always-faster scan: threshold %d, want 10000", got)
	}
}

func TestProfileConfigShapes(t *testing.T) {
	// Small, fast sweep: scan latency must grow with table size, DHE must
	// stay (nearly) flat, and a threshold must exist.
	sizes := []int{64, 512, 4096}
	res := ProfileConfig(16, Varied, ExecConfig{Batch: 8, Threads: 1}, sizes, 3, 1)
	if len(res.ScanNs) != 3 || len(res.DHENs) != 3 {
		t.Fatalf("missing curve points: %+v", res)
	}
	if !(res.ScanNs[2] > res.ScanNs[0]) {
		t.Fatalf("scan latency must grow with size: %v", res.ScanNs)
	}
	ratio := res.DHENs[2] / res.DHENs[0]
	if ratio > 5 || ratio < 0.2 {
		t.Fatalf("DHE latency should be roughly flat across sizes; got ratio %.2f (%v)", ratio, res.DHENs)
	}
	if res.Threshold < sizes[0] || res.Threshold > sizes[len(sizes)-1] {
		t.Fatalf("threshold %d outside profiled range", res.Threshold)
	}
}

func TestThreadSpeedupModel(t *testing.T) {
	if threadSpeedup(1, scanThreadExponent) != 1 {
		t.Fatal("1 thread must be unit speedup")
	}
	// Scan must gain more from threads than DHE (Fig. 6: thresholds rise
	// with thread count).
	if threadSpeedup(8, scanThreadExponent) <= threadSpeedup(8, dheThreadExponent) {
		t.Fatal("scan must scale better with threads than DHE in the model")
	}
}

func TestThresholdRisesWithThreads(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096, 16384}
	t1 := ProfileConfig(16, Uniform, ExecConfig{Batch: 32, Threads: 1}, sizes, 3, 2).Threshold
	t8 := ProfileConfig(16, Uniform, ExecConfig{Batch: 32, Threads: 8}, sizes, 3, 2).Threshold
	if t8 < t1 {
		t.Fatalf("threshold fell with threads: %d → %d", t1, t8)
	}
}

func TestDBThresholdFallback(t *testing.T) {
	db := &DB{Dim: 16, Thresholds: map[ExecConfig]int{
		{Batch: 8, Threads: 1}:  1000,
		{Batch: 64, Threads: 1}: 500,
	}}
	if db.Threshold(ExecConfig{Batch: 8, Threads: 1}) != 1000 {
		t.Fatal("exact lookup failed")
	}
	// Nearest by log-batch: batch 10 is closer to 8 than 64.
	if db.Threshold(ExecConfig{Batch: 10, Threads: 1}) != 1000 {
		t.Fatal("nearest-config fallback failed")
	}
	if db.Threshold(ExecConfig{Batch: 100, Threads: 1}) != 500 {
		t.Fatal("nearest-config fallback failed for large batch")
	}
}

func TestAllocateAlgorithm3(t *testing.T) {
	db := &DB{Dim: 16, Thresholds: map[ExecConfig]int{{Batch: 32, Threads: 1}: 3000}}
	techs := db.Allocate([]int{10, 3000, 3001, 1_000_000}, ExecConfig{Batch: 32, Threads: 1})
	want := []core.Technique{core.LinearScan, core.LinearScan, core.DHE, core.DHE}
	for i := range want {
		if techs[i] != want[i] {
			t.Fatalf("Allocate[%d]=%v, want %v", i, techs[i], want[i])
		}
	}
}

func TestHybridRangeAndSortedConfigs(t *testing.T) {
	db := &DB{Thresholds: map[ExecConfig]int{
		{Batch: 8, Threads: 1}:   2000,
		{Batch: 32, Threads: 1}:  1000,
		{Batch: 32, Threads: 16}: 5000,
	}}
	lo, hi := db.HybridRange()
	if lo != 1000 || hi != 5000 {
		t.Fatalf("HybridRange = [%d, %d]", lo, hi)
	}
	cfgs := db.SortedConfigs()
	if len(cfgs) != 3 || cfgs[0].Batch != 8 || cfgs[2].Threads != 16 {
		t.Fatalf("SortedConfigs=%v", cfgs)
	}
}

func TestBuildDBDeterministicKeys(t *testing.T) {
	db := BuildDB(16, Varied, []int{4}, []int{1}, []int{64, 512}, 2, 3)
	if len(db.Thresholds) != 1 {
		t.Fatalf("expected 1 config, got %d", len(db.Thresholds))
	}
	if db.Kind != Varied || db.Dim != 16 {
		t.Fatal("DB metadata wrong")
	}
}

func TestProfileLLMAndBestSecure(t *testing.T) {
	// A small vocabulary so the test is quick, but past the scan's
	// crossover: at large batch sizes DHE's amortization beats the ORAM's
	// sequential accesses, and both beat the O(n) scan. At 2 048 rows the
	// AVX2 scan kernel runs level with Circuit ORAM at batch 64 (a 2-vCPU
	// Xeon: ≈ 0.3–0.4 ms each); at 16 384 it takes ≈ 5 ms, against
	// ≈ 0.8 ms for Circuit ORAM and ≈ 0.7 ms for DHE.
	res := ProfileLLM(16384, 32, []int{1, 64}, 2, 4)
	if len(res.DHENs) != 2 || len(res.CircuitNs) != 2 {
		t.Fatalf("missing curves: %+v", res)
	}
	best := res.BestSecure()
	if len(best) != 2 {
		t.Fatal("BestSecure length")
	}
	if raceEnabled {
		// The race detector slows the Go paths but not the scan's assembly
		// kernel, so the wall-clock winners below say nothing under it.
		return
	}
	// At batch 64 on this host DHE and Circuit ORAM race closely (the
	// decisive gap needs the paper machine's AVX-512 — see internal/perf);
	// what must hold in wall-clock is that the O(n) scan loses to both and
	// the winner is one of the two contenders.
	if best[1] != core.DHE && best[1] != core.CircuitORAM {
		t.Fatalf("batch-64 winner %v, want DHE or Circuit ORAM", best[1])
	}
	if res.ScanNs[1] < res.DHENs[1] || res.ScanNs[1] < res.CircuitNs[1] {
		t.Fatalf("scan (%.0fns) must lose to DHE (%.0fns) and Circuit (%.0fns) at batch 64",
			res.ScanNs[1], res.DHENs[1], res.CircuitNs[1])
	}
}

func TestDHEKindString(t *testing.T) {
	if Uniform.String() != "Uniform" || Varied.String() != "Varied" {
		t.Fatal("DHEKind strings")
	}
}

func TestExecConfigString(t *testing.T) {
	if (ExecConfig{Batch: 4, Threads: 2}).String() != "batch=4,threads=2" {
		t.Fatal("ExecConfig.String")
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	src := &DB{Dim: 16, Kind: Varied, Thresholds: map[ExecConfig]int{
		{Batch: 8, Threads: 1}:   1200,
		{Batch: 32, Threads: 16}: 4100,
	}}
	var buf bytes.Buffer
	if err := writeJSON(&buf, src.encoded()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 16 || got.Kind != Varied || len(got.Thresholds) != 2 {
		t.Fatalf("loaded %+v", got)
	}
	for cfg, thr := range src.Thresholds {
		if got.Thresholds[cfg] != thr {
			t.Fatalf("threshold for %v: %d vs %d", cfg, got.Thresholds[cfg], thr)
		}
	}
}

func TestDBSaveLoadFile(t *testing.T) {
	src := &DB{Dim: 64, Kind: Uniform, Thresholds: map[ExecConfig]int{{Batch: 1, Threads: 1}: 99}}
	path := filepath.Join(t.TempDir(), "thresholds.json")
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != Uniform || got.Thresholds[ExecConfig{Batch: 1, Threads: 1}] != 99 {
		t.Fatalf("file round trip: %+v", got)
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := LoadDB(strings.NewReader("not json")); err == nil {
		t.Fatal("bad JSON must error")
	}
	if _, err := LoadDB(strings.NewReader(`{"kind":"Nope","thresholds":{}}`)); err == nil {
		t.Fatal("bad kind must error")
	}
	if _, err := LoadDB(strings.NewReader(`{"kind":"Varied","thresholds":{"garbage":1}}`)); err == nil {
		t.Fatal("bad key must error")
	}
}

// TestLoadDBRejectsAliasedKeys: a key loads only in the one spelling
// ExecConfig.String renders. Spellings that scan to the same config would
// otherwise collide in the map, and which threshold wins would depend on
// map iteration order.
func TestLoadDBRejectsAliasedKeys(t *testing.T) {
	const aliased = `{"dim":16,"kind":"Varied","thresholds":{` +
		`"batch=8,threads=1":5,"batch=08,threads=1":100,"batch=8,threads=1junk":900}}`
	if db, err := LoadDB(strings.NewReader(aliased)); err == nil {
		t.Fatalf("aliased keys loaded, threshold %d", db.Threshold(ExecConfig{Batch: 8, Threads: 1}))
	}
	for _, key := range []string{"batch=08,threads=1", "batch=8,threads=1junk", " batch=8,threads=1",
		"batch=+8,threads=1", "batch=0,threads=1", "batch=8,threads=0", "batch=-2,threads=1"} {
		in := `{"kind":"Varied","thresholds":{"` + key + `":1}}`
		if _, err := LoadDB(strings.NewReader(in)); err == nil {
			t.Errorf("key %q loaded", key)
		}
	}
}

// FuzzLoadDB: whatever bytes profiler -load is given either fail to load,
// or load to the same DB every time, survive a save → load round trip
// unchanged, and answer Threshold, Allocate and HybridRange without
// panicking.
func FuzzLoadDB(f *testing.F) {
	f.Add([]byte(`{"dim":16,"kind":"Varied","thresholds":{"batch=8,threads=1":1200,"batch=32,threads=16":4100}}`))
	f.Add([]byte(`{"dim":64,"kind":"Uniform","thresholds":{"batch=1,threads=1":99}}`))
	f.Add([]byte(`{"kind":"Varied","thresholds":{"batch=8,threads=1":5,"batch=08,threads=1":100}}`))
	f.Add([]byte(`{"kind":"Uniform","thresholds":null}`))
	f.Add([]byte(`{"kind":"Nope"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		if again, err := LoadDB(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(again, db) {
			t.Fatalf("second load differs:\n%+v\n%+v (err %v)", db, again, err)
		}
		var buf bytes.Buffer
		if err := writeJSON(&buf, db.encoded()); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadDB(&buf); err != nil || !reflect.DeepEqual(got, db) {
			t.Fatalf("round trip changed the DB:\n%+v\n%+v (err %v)", db, got, err)
		}
		for _, cfg := range append(db.SortedConfigs(), ExecConfig{Batch: 1, Threads: 1}, ExecConfig{Batch: 1 << 20, Threads: 64}) {
			db.Allocate([]int{0, 1, db.Threshold(cfg), 1 << 30}, cfg)
		}
		db.HybridRange()
	})
}
