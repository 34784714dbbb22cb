package perf

import "math"

// Co-located inference (§IV-C2, Figures 8, 9, 13): many single-threaded
// model replicas sharing one socket's cores and memory bandwidth. A
// replica's Cost already splits into a compute part (runs on its own core,
// unaffected by neighbors while replicas ≤ cores) and a memory-traffic
// part (contends for the shared DRAM channels once the aggregate demand
// exceeds the socket bandwidth).
//
// This reproduces the paper's observations: memory-bound linear scans
// inflate quickly under co-location while compute-bound DHE replicas
// barely notice each other; the all-scan vs all-DHE crossover under 24-way
// co-location stays near the single-model threshold; and latency-bounded
// throughput favors the hybrid allocation.

// System describes the shared socket.
type System struct {
	Cores int
	// MemBandwidthWordsPerNs is the aggregate DRAM bandwidth available to
	// all replicas (Table III: 8×DDR4-3200 ≈ 200 GB/s ≈ 50 words/ns).
	MemBandwidthWordsPerNs float64
	Platform               Platform
}

// IceLakeSystem is the paper's machine: 28 cores, ~200 GB/s.
func IceLakeSystem() System {
	return System{
		Cores:                  28,
		MemBandwidthWordsPerNs: 50,
		Platform:               IceLake(1), // one thread per replica
	}
}

// Solo returns the replica's latency when running alone.
func (s System) Solo(c Cost) float64 { return s.Platform.Ns(c) }

// Latency returns the per-replica latencies when all loads run
// concurrently, one replica per core. Memory traffic inflates by the
// ratio of aggregate demand to available bandwidth once saturated; if
// there are more replicas than cores, compute time-slices too.
func (s System) Latency(loads []Cost) []float64 {
	out := make([]float64, len(loads))
	if len(loads) == 0 {
		return out
	}
	// Aggregate bandwidth demand, using solo latencies as the request
	// rate estimate.
	var demand float64 // words per ns requested
	for _, l := range loads {
		solo := s.Solo(l)
		if solo > 0 {
			demand += l.MemWords / solo
		}
	}
	memInflation := math.Max(1, demand/s.MemBandwidthWordsPerNs)
	cpuInflation := math.Max(1, float64(len(loads))/float64(s.Cores))
	for i, l := range loads {
		out[i] = l.ComputeNs*cpuInflation + l.MemWords*s.Platform.StreamWordNs*memInflation
	}
	return out
}

// MeanLatency co-locates the loads and returns the average latency.
func (s System) MeanLatency(loads []Cost) float64 {
	lats := s.Latency(loads)
	var sum float64
	for _, v := range lats {
		sum += v
	}
	return sum / float64(len(lats))
}

// Replicas is n identical co-located replicas of one demand.
func Replicas(c Cost, n int) []Cost {
	out := make([]Cost, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// Throughput returns inferences/second for n identical co-located
// replicas with the given per-batch load: n × batch / latency(n)
// (§IV-C2's throughput formula).
func (s System) Throughput(l Cost, n, batch int) (latencyNs float64, infPerSec float64) {
	lat := s.MeanLatency(Replicas(l, n))
	return lat, float64(n) * float64(batch) / (lat / 1e9)
}

// MaxThroughputUnderSLA sweeps replica counts 1..maxN and returns the best
// throughput whose latency stays at or below slaNs (Figure 13's
// latency-bounded throughput with a 20 ms SLA).
func (s System) MaxThroughputUnderSLA(l Cost, batch, maxN int, slaNs float64) (bestN int, bestThroughput float64) {
	for n := 1; n <= maxN; n++ {
		lat, tp := s.Throughput(l, n, batch)
		if lat <= slaNs && tp > bestThroughput {
			bestN, bestThroughput = n, tp
		}
	}
	return bestN, bestThroughput
}
