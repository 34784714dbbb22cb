package oblivious

import (
	"encoding/binary"
	"math"
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

// FuzzCondCopy checks the unrolled XOR blends of CondCopy and
// CondCopyWords against the one-line reference (s&m)|(d&^m), element by
// element on raw bits, for arbitrary lengths (every 0–3-element tail),
// arbitrary mask values (not only all-ones and zero) and a src that may
// run longer than dst.
func FuzzCondCopy(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint8(0))
	f.Add(^uint64(0), []byte("0123456789abcdefghijklmnopqrstuvwxyz0123"), uint8(1))
	f.Add(uint64(0xdeadbeef_0f0f0f0f), []byte("sixteen bytes..!seven.."), uint8(3))
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
		want := make([]uint32, n)
		for i := range want {
			want[i] = (sw[i] & m) | (dw[i] &^ m)
		}
		CondCopyWords(mask, dw, sw)
		CondCopy(mask, df, sf)
		for i := range want {
			if dw[i] != want[i] {
				t.Fatalf("CondCopyWords len %d mask %#x: word %d = %#x, want %#x", n, mask, i, dw[i], want[i])
			}
			if got := math.Float32bits(df[i]); got != want[i] {
				t.Fatalf("CondCopy len %d mask %#x: element %d = %#x, want %#x", n, mask, i, got, want[i])
			}
		}
	})
}
