package oblivious

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// FuzzEqLt cross-checks the branchless comparisons against the operators
// for arbitrary operand pairs.
func FuzzEqLt(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(1))
	f.Add(uint64(1)<<63, uint64(1)<<63-1)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		wantEq := uint64(0)
		if a == b {
			wantEq = ^uint64(0)
		}
		if Eq(a, b) != wantEq {
			t.Fatalf("Eq(%d,%d)", a, b)
		}
		wantLt := uint64(0)
		if a < b {
			wantLt = ^uint64(0)
		}
		if Lt(a, b) != wantLt {
			t.Fatalf("Lt(%d,%d)", a, b)
		}
	})
}

// FuzzCondCopy checks the unrolled XOR blends of CondCopy and CondCopy64
// against the one-line reference (s&m)|(d&^m), and OrTile and its scalar
// loop against a | t0&m0 | t1&m1 | t2&m2 | t3&m3, element by element on
// raw bits, for arbitrary mask values (not only all-ones and zero),
// arbitrary lengths (every 0–3-element tail, which is also every length
// past OrTile's multiple-of-four vector prefix; odd and even tiles) and
// sources that may run longer than dst.
func FuzzCondCopy(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint8(0))
	f.Add(^uint64(0), []byte("0123456789abcdefghijklmnopqrstuvwxyz0123"), uint8(1))
	f.Add(uint64(0xdeadbeef_0f0f0f0f), []byte("sixteen bytes..!seven.."), uint8(3))
	f.Add(uint64(0x8000_0000_ffff_0001), []byte("sixty-seven words, slack two"), uint8(203))
	f.Fuzz(func(t *testing.T, mask uint64, raw []byte, extra uint8) {
		n := len(raw) / 8
		dw := make([]uint32, n)
		sw := make([]uint32, n+int(extra%4))
		for i := 0; i < n; i++ {
			dw[i] = binary.LittleEndian.Uint32(raw[8*i:])
			sw[i] = binary.LittleEndian.Uint32(raw[8*i+4:])
		}
		df := make([]float32, n)
		sf := make([]float32, len(sw))
		for i := range df {
			df[i], sf[i] = math.Float32frombits(dw[i]), math.Float32frombits(sw[i])
		}
		m := uint32(mask)
		CondCopy(mask, df, sf)
		for i := range df {
			if got, want := math.Float32bits(df[i]), (sw[i]&m)|(dw[i]&^m); got != want {
				t.Fatalf("CondCopy len %d mask %#x: element %d = %#x, want %#x", n, mask, i, got, want)
			}
		}

		// The uint64 kernels take their length (0–67) and src slack (0–3)
		// from extra, and their words from raw, cycled and mixed with a
		// counter so no two words repeat.
		n64, slack := int(extra)%68, int(extra)/68
		var drawn uint64
		words := func(k int) []uint64 {
			w := make([]uint64, k)
			for i := range w {
				var b [8]byte
				for j := range b {
					if len(raw) > 0 {
						b[j] = raw[(8*int(drawn)+j)%len(raw)]
					}
				}
				drawn++
				w[i] = binary.LittleEndian.Uint64(b[:]) ^ drawn*0x9e3779b97f4a7c15
			}
			return w
		}
		d, s := words(n64), words(n64+slack)
		want := make([]uint64, n64)
		for i := range want {
			want[i] = s[i]&mask | d[i]&^mask
		}
		CondCopy64(mask, d, s)
		for i := range want {
			if d[i] != want[i] {
				t.Fatalf("CondCopy64 len %d mask %#x: word %d = %#x, want %#x", n64, mask, i, d[i], want[i])
			}
		}

		a := words(n64)
		t0, t1, t2, t3 := words(n64+slack), words(n64+slack), words(n64+slack), words(n64+slack)
		m0, m1, m2, m3 := mask, ^mask, bits.RotateLeft64(mask, 17), mask*0x9e3779b97f4a7c15
		for i := range want {
			want[i] = a[i] | t0[i]&m0 | t1[i]&m1 | t2[i]&m2 | t3[i]&m3
		}
		// The scalar loop is OrTile's tail and its fallback off AVX2, so
		// it is checked on its own too.
		sc := append([]uint64(nil), a...)
		OrTile(a, t0, t1, t2, t3, m0, m1, m2, m3)
		orTileScalar(sc, t0, t1, t2, t3, m0, m1, m2, m3)
		for i := range want {
			if a[i] != want[i] {
				t.Fatalf("OrTile len %d mask %#x: word %d = %#x, want %#x", n64, mask, i, a[i], want[i])
			}
			if sc[i] != want[i] {
				t.Fatalf("orTileScalar len %d mask %#x: word %d = %#x, want %#x", n64, mask, i, sc[i], want[i])
			}
		}
	})
}
