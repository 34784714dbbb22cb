// Sidechannel: the full attack-and-defense story of §III and Table II.
// First the cache attack recovers a victim's embedding index, alone and
// combined with the page-fault and DRAM row-buffer channels; then the
// trace instrumentation quantifies, in bits, how much each generation
// technique leaks about the query.
//
//	go run ./examples/sidechannel
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"secemb/internal/cache"
	"secemb/internal/core"
	"secemb/internal/memtrace"
	"secemb/internal/tensor"
)

func main() {
	os.Exit(run(os.Stdout))
}

func run(stdout io.Writer) int {
	fmt.Fprintln(stdout, "== Part 1: PRIME+SCOPE-style cache attack on a table lookup (Figure 3) ==")
	victim := &cache.Victim{Base: 0, NumRows: 256, LinesPerRow: 4, Cache: cache.New(cache.DefaultConfig())}
	attacker := cache.NewAttacker(victim, 25)
	for _, secret := range []int{2, 17, 24} {
		m := attacker.Run(secret, 10, 0, victim.Lookup, nil)
		fmt.Fprintf(stdout, "victim queried index %2d → attacker's guess from probe latencies: %2d\n", secret, m.Guess())
	}
	m := attacker.Run(2, 10, 0, victim.LinearScan, nil)
	flat := true
	for _, v := range m.Latency {
		if v != m.Latency[0] {
			flat = false
		}
	}
	fmt.Fprintf(stdout, "same attack against the linear scan: latency profile flat = %v → nothing to recover\n", flat)

	// §III-A2: the page-fault channel narrows the index to one page, then a
	// focused cache attack pinpoints the row — recovery on a table far
	// larger than the 25 sets above could monitor.
	const secret = 1033
	large := &cache.Victim{Base: 0, NumRows: 4096, LinesPerRow: 4, Cache: cache.New(cache.DefaultConfig())}
	fmt.Fprintf(stdout, "combined page-fault + cache attack on a %d-row table (%d rows/page): victim queried index %d → recovered %d\n",
		large.NumRows, large.RowsPerPage(), secret, cache.NewCombinedAttack(large).Recover(secret, 10))
	// The DRAM row-buffer channel is coarser: it localizes, not pinpoints.
	rb := cache.NewRowBufferAttack(large, cache.NewDRAM(cache.DefaultDRAMConfig()))
	lo, hi := rb.Recover(secret)
	fmt.Fprintf(stdout, "DRAM row-buffer channel (%d table rows per DRAM row): victim queried index %d → localized to window [%d, %d)\n\n",
		rb.RowsPerDRAMRow(), secret, lo, hi)

	fmt.Fprintln(stdout, "== Part 2: leakage in bits, measured on the access traces (Table II) ==")
	const rows, dim, secrets = 64, 8, 16
	table := tensor.NewGaussian(rows, dim, 0.1, rand.New(rand.NewSource(5)))
	tracer := memtrace.NewEnabled()
	gens := []core.Generator{
		core.MustNew(core.Lookup, rows, dim, core.Options{Table: table, Tracer: tracer}),
		core.MustNew(core.LinearScan, rows, dim, core.Options{Table: table, Tracer: tracer}),
		core.MustNew(core.CircuitORAM, rows, dim, core.Options{Table: table, Tracer: tracer, Seed: 6}),
		core.MustNew(core.DHE, rows, dim, core.Options{Tracer: tracer, Seed: 7}),
	}
	fmt.Fprintf(stdout, "querying %d distinct secrets; a fully leaky scheme reveals log2(%d) = 4 bits\n\n", secrets, secrets)
	fmt.Fprintln(stdout, "technique                    leaked bits (first-touch MI)")
	for _, g := range gens {
		leak := make([]map[int64]int, secrets)
		for s := 0; s < secrets; s++ {
			leak[s] = map[int64]int{}
			for trial := 0; trial < 32; trial++ {
				tracer.Reset()
				g.Generate([]uint64{uint64(s)})
				tr := tracer.Snapshot()
				if len(tr) > 0 {
					leak[s][firstDataTouch(tr)]++
				}
			}
		}
		fmt.Fprintf(stdout, "%-27s  %.3f\n", g.Technique(), memtrace.MutualInformationBits(leak))
	}
	fmt.Fprintln(stdout, "\nonly the non-secure lookup leaks; scan, ORAM and DHE are at (statistical) zero.")
	return 0
}

// firstDataTouch returns the first tree/table block touched, skipping the
// deterministic posmap prefix so the ORAM measurement reflects its
// randomized component.
func firstDataTouch(tr memtrace.Trace) int64 {
	for _, a := range tr {
		if a.Region == "lookup" || a.Region == "scan" || a.Region == "dhe" ||
			a.Region == "circuit.tree" || a.Region == "path.tree" {
			return a.Block
		}
	}
	return tr[0].Block
}
