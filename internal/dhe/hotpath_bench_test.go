package dhe

import (
	"fmt"
	"math/rand"
	"testing"
)

// Hot-path benchmarks for the embedding generator. BenchmarkDHEGenerate is
// the acceptance benchmark of the quantized-hot-path PR: steady-state batch
// generation on the paper's Uniform DLRM architecture (Table IV: k=1024,
// 512-256-dim decoder) with the int8 SWAR decoder serving (the production
// default); the uniform-f32 variants keep the float32 path measured so the
// speedup stays visible in one report.
func BenchmarkDHEGenerate(b *testing.B) {
	run := func(name string, batch int, int8 bool) {
		b.Run(fmt.Sprintf("%s/batch%d", name, batch), func(b *testing.B) {
			d := New(UniformConfig(16, 1), rand.New(rand.NewSource(1)))
			if int8 {
				if rep := d.EnableInt8(Int8Gate{}); !rep.Enabled {
					b.Fatalf("int8 gate rejected the benchmark decoder: %+v", rep)
				}
			}
			d.SetInference(true) // steady-state serving path
			ids := make([]uint64, batch)
			for i := range ids {
				ids[i] = uint64(i * 31)
			}
			d.Generate(ids) // warmup
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Generate(ids)
			}
		})
	}
	for _, batch := range []int{1, 64} {
		run("uniform", batch, true)
	}
	for _, batch := range []int{1, 64} {
		run("uniform-f32", batch, false)
	}
}

// BenchmarkDHEToTable measures the offline DHE→table materialization used
// by the hybrid deployment (§IV-C1), which runs Generate in a tight loop
// through a cached inference clone and a reusable id buffer.
func BenchmarkDHEToTable(b *testing.B) {
	d := New(VariedConfig(16, 4096, 1), rand.New(rand.NewSource(1)))
	d.ToTable(4096) // build the materialization clone once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ToTable(4096)
	}
}
