package oram

import (
	"fmt"
	"testing"
)

// TestAccessAllocs is the oram half of the zero-allocation invariant: an
// Update allocates nothing for either scheme at recursion depth 0, 1 and
// 2, and a Read allocates exactly the copy it returns — also with an odd
// payload width and a bucket that is not a whole read-phase tile.
func TestAccessAllocs(t *testing.T) {
	const n = 2048
	for _, m := range makers {
		for _, shape := range []struct {
			words, z int
			name     string
		}{{8, 0, ""}, {7, 3, "/words7_z3"}} {
			for _, c := range []struct{ cutoff, depth int }{{-1, 0}, {256, 1}, {64, 2}} {
				t.Run(fmt.Sprintf("%s/depth%d%s", m.name, c.depth, shape.name), func(t *testing.T) {
					o := m.mk(Config{NumBlocks: n, BlockWords: shape.words, Z: shape.z, Seed: 3, RecursionCutoff: c.cutoff})
					if got := o.RecursionDepth(); got != c.depth {
						t.Fatalf("recursion depth %d, want %d", got, c.depth)
					}
					var id uint64
					next := func() uint64 { id = (id + 7) % n; return id }
					if a := testing.AllocsPerRun(20, func() { o.Update(next(), func(d []uint32) { d[0]++ }) }); a != 0 {
						t.Errorf("Update allocates %.0f objects per access", a)
					}
					if a := testing.AllocsPerRun(20, func() { o.Read(next()) }); a != 1 {
						t.Errorf("Read allocates %.0f objects per access, want 1 (its returned copy)", a)
					}
				})
			}
		}
	}
}
