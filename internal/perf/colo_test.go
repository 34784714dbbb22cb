package perf

import (
	"testing"

	"secemb/internal/dhe"
)

func TestSoloMatchesSingleLatency(t *testing.T) {
	s := IceLakeSystem()
	l := s.Platform.ScanCost(10000, 64, 32)
	solo := s.Solo(l)
	co := s.Latency([]Cost{l})
	if len(co) != 1 || co[0] < solo || co[0] > solo*1.01 {
		t.Fatalf("single replica must match solo: %v vs %v", co, solo)
	}
}

// TestFig8ScanInflatesFasterThanDHE: co-locating 24 memory-bound scan
// replicas inflates latency much more than 24 compute-bound DHE replicas.
func TestFig8ScanInflatesFasterThanDHE(t *testing.T) {
	s := IceLakeSystem()
	scan := s.Platform.ScanCost(1_000_000, 64, 32)
	dheL := s.Platform.DHECost(dhe.UniformConfig(64, 1), 32)

	inflate := func(l Cost, n int) float64 {
		return s.MeanLatency(Replicas(l, n)) / s.Solo(l)
	}
	scanInfl := inflate(scan, 24)
	dheInfl := inflate(dheL, 24)
	t.Logf("24-way inflation: scan %.2f×, DHE %.2f×", scanInfl, dheInfl)
	if scanInfl < 1.3 {
		t.Fatalf("scan inflation %.2f too small — bandwidth model inert", scanInfl)
	}
	if dheInfl >= scanInfl {
		t.Fatalf("DHE inflation %.2f not below scan %.2f", dheInfl, scanInfl)
	}
	// Monotonic in replica count.
	if inflate(scan, 24) < inflate(scan, 8) {
		t.Fatal("inflation must grow with co-location")
	}
}

// TestFig9CrossoverNearSingleModelThreshold: at fixed 24-way co-location,
// all-scan wins for small tables and all-DHE for large ones, with the
// switch in the same decade as the single-model threshold (paper: 4500 vs
// 3300).
func TestFig9CrossoverNearSingleModelThreshold(t *testing.T) {
	s := IceLakeSystem()
	meanAll := func(rows, nDHE int) float64 {
		loads := make([]Cost, 24)
		for i := range loads {
			if i < nDHE {
				loads[i] = s.Platform.DHECost(dhe.UniformConfig(64, 1), 32)
			} else {
				loads[i] = s.Platform.ScanCost(rows, 64, 32)
			}
		}
		return s.MeanLatency(loads)
	}
	// Small tables: all-scan (nDHE=0) beats all-DHE (nDHE=24).
	if !(meanAll(500, 0) < meanAll(500, 24)) {
		t.Fatalf("small tables: all-scan should win (%.0f vs %.0f)", meanAll(500, 0), meanAll(500, 24))
	}
	// Large tables: all-DHE wins.
	if !(meanAll(100_000, 24) < meanAll(100_000, 0)) {
		t.Fatalf("large tables: all-DHE should win (%.0f vs %.0f)", meanAll(100_000, 24), meanAll(100_000, 0))
	}
	// The crossover lies between 1e3 and 3e4 — same decade as the
	// single-model threshold.
	crossed := false
	prevScanWins := meanAll(1000, 0) < meanAll(1000, 24)
	for _, rows := range []int{3000, 10_000, 30_000} {
		scanWins := meanAll(rows, 0) < meanAll(rows, 24)
		if prevScanWins && !scanWins {
			crossed = true
		}
		prevScanWins = scanWins
	}
	if !crossed {
		t.Fatal("no all-scan→all-DHE crossover found in the expected decade")
	}
}

func TestThroughputScalesThenSaturates(t *testing.T) {
	s := IceLakeSystem()
	l := s.Platform.ScanCost(50_000, 64, 32)
	_, tp1 := s.Throughput(l, 1, 32)
	_, tp8 := s.Throughput(l, 8, 32)
	if tp8 <= tp1 {
		t.Fatal("throughput must grow with modest co-location")
	}
	lat1, _ := s.Throughput(l, 1, 32)
	lat28, _ := s.Throughput(l, 28, 32)
	if lat28 < lat1 {
		t.Fatal("latency must not fall with co-location")
	}
}

// TestFig13SLABoundedThroughput: under a 20 ms SLA, a lighter (hybrid-
// like) load admits more replicas and more throughput than a heavier
// (all-DHE-like) one.
func TestFig13SLABoundedThroughput(t *testing.T) {
	s := IceLakeSystem()
	heavy := s.Platform.DHECost(dhe.UniformConfig(64, 1), 32)
	light := Cost{ComputeNs: heavy.ComputeNs * 0.6, MemWords: heavy.MemWords * 0.8}
	const sla = 20e6 // 20 ms
	nH, tpH := s.MaxThroughputUnderSLA(heavy, 32, 28, sla)
	nL, tpL := s.MaxThroughputUnderSLA(light, 32, 28, sla)
	if nH == 0 || nL == 0 {
		t.Fatalf("SLA admitted nothing: heavy=%d light=%d", nH, nL)
	}
	if tpL <= tpH {
		t.Fatalf("lighter load must yield more SLA-bounded throughput (%.0f vs %.0f)", tpL, tpH)
	}
}

func TestEmptyLoads(t *testing.T) {
	s := IceLakeSystem()
	if len(s.Latency(nil)) != 0 {
		t.Fatal("empty loads must return empty latencies")
	}
}
