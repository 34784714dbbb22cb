package backends

import (
	"context"
	"sync"
	"testing"
	"time"

	"secemb/internal/core"
	"secemb/internal/serving"
)

// The acceptance-criterion load shape: 64 concurrent clients, each
// submitting one single-id request per wave. Per-request serving hands the
// §IV-D Dual generator batch-1 calls, which its threshold dispatches to
// Circuit ORAM; the coalescer fuses the wave far past the threshold, so
// the same backend serves the same ids through the batch-amortized DHE
// representation instead. That regime change — unreachable without
// cross-request batching — is where the ≥2× requests/sec comes from
// (ISSUE: Figures 5/13 assume batch sizes concurrent single-row traffic
// never reaches on its own).
const (
	benchClients = 64
	// One replica in both variants: the comparison isolates the scheduler
	// (identical backends, identical hardware), and on a serialized host
	// extra replicas only add hand-off noise.
	benchReplicas = 1
	benchRows     = 4096
	benchDim      = 16
	// benchThreshold is the Dual dispatch point: batches of at most 8 go
	// to Circuit ORAM, larger ones to DHE (paper Table VII regime).
	benchThreshold = 8
)

// dualBackends builds one Dual-DHE Embedding backend with cap maxBatch per replica
// (independent generators: ORAM position maps must not be shared).
func dualBackends(b *testing.B, maxBatch int) []serving.Backend {
	b.Helper()
	bes := make([]serving.Backend, benchReplicas)
	for i := range bes {
		dheGen, err := core.New(core.DHE, benchRows, benchDim, core.Options{Seed: int64(40 + i)})
		if err != nil {
			b.Fatal(err)
		}
		bes[i] = NewEmbedding(core.NewDual(dheGen, benchThreshold, core.Options{Seed: int64(50 + i)}), maxBatch)
	}
	return bes
}

// wave times b.N waves of benchClients concurrent single-id requests.
func wave(b *testing.B, do func(key uint64, ids []uint64) serving.Response) {
	reqs := make([][]uint64, benchClients)
	for c := range reqs {
		reqs[c] = []uint64{uint64(c*37) % benchRows}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < benchClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if resp := do(uint64(c), reqs[c]); resp.Err != nil {
					b.Error(resp.Err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkServe64SingleRowClients measures the serving-stack acceptance
// number: one op is a wave of 64 concurrent single-id requests on the
// DHE-backed Dual backend, so requests/sec = 64 / (ns_per_op × 1e-9).
// The coalesced variant must sustain at least twice the per-request
// baseline's requests/sec (its ns/op at most half).
func BenchmarkServe64SingleRowClients(b *testing.B) {
	b.Run("per-request", func(b *testing.B) {
		pool := perRequestGroup(dualBackends(b, 1), benchClients)
		defer pool.Close()
		wave(b, func(_ uint64, ids []uint64) serving.Response {
			return pool.Do(context.Background(), 0, ids)
		})
	})

	b.Run("coalesced", func(b *testing.B) {
		// Each wave exactly fills MaxBatch, so the gather loop always
		// flushes on full — one fused DHE-regime Generate per wave — and
		// MaxWait is only the safety valve, never on the critical path.
		group := serving.NewGroup(dualBackends(b, benchClients), serving.GroupConfig{
			Shards:   1,
			Coalesce: serving.CoalesceConfig{MaxWait: 5 * time.Millisecond},
		})
		defer group.Close()
		wave(b, func(key uint64, ids []uint64) serving.Response {
			return group.Do(context.Background(), key, ids)
		})
	})
}
