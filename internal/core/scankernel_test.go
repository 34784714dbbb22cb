package core

import (
	"encoding/binary"
	"math"
	"testing"

	"secemb/internal/memtrace"
	"secemb/internal/oblivious"
	"secemb/internal/tensor"
)

// scanSpecials are float32 bit patterns a float path could alter: −0, NaN
// payloads (quiet, signalling, negative), denormals and ±Inf.
var scanSpecials = []uint32{0x80000000, 0x7fc00001, 0x7f800001, 0xffffffff, 0x00000001, 0x807fffff, 0x7f800000, 0xff800000}

// specialTable is a Gaussian table with every third element replaced by
// one of scanSpecials.
func specialTable(rows, dim int) *tensor.Matrix {
	tbl := testTable(rows, dim, 51)
	for k := 0; k < len(tbl.Data); k += 3 {
		tbl.Data[k] = math.Float32frombits(scanSpecials[(k/3)%len(scanSpecials)])
	}
	return tbl
}

// sameBits reports the first element whose bit pattern differs, or -1.
func sameBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 63, 64, 65} {
		tbl := specialTable(3, dim)
		p := packTable(tbl.Rows, tbl.Cols, Options{Table: tbl}.rowSource())
		if p.Rows() != 3 || p.Dim() != dim || p.width != (dim+1)/2 || p.NumBytes() != int64(3*p.width*8) {
			t.Fatalf("dim %d: packed %d×%d, width %d, %d B", dim, p.Rows(), p.Dim(), p.width, p.NumBytes())
		}
		for r := 0; r < 3; r++ {
			words := p.words[r*p.width : (r+1)*p.width]
			got := make([]float32, dim)
			unpackRow(got, words)
			if i := sameBits(got, tbl.Row(r)); i >= 0 {
				t.Fatalf("dim %d row %d: element %d unpacks to %08x, want %08x",
					dim, r, i, math.Float32bits(got[i]), math.Float32bits(tbl.Row(r)[i]))
			}
			if pad := words[p.width-1] >> 32; dim%2 == 1 && pad != 0 {
				t.Fatalf("dim %d row %d: padding half holds %08x", dim, r, pad)
			}
		}
	}
}

// TestScanFamilyBitIdentical: lookup, scan and scanb return the same bits
// at every worker count and batch size, on a table whose rows hold −0, NaN
// payloads, denormals and ±Inf and whose shape is odd on both axes.
func TestScanFamilyBitIdentical(t *testing.T) {
	const rows, dim = 67, 9
	tbl := specialTable(rows, dim)
	for _, batch := range []int{1, 3, 8, 64} {
		ids := make([]uint64, batch)
		for i := range ids {
			ids[i] = uint64(i*29) % rows // 0, 29, 58, 20, …
		}
		ids[batch-1] = rows - 1
		if batch >= 3 {
			ids[1] = rows - 1 // a duplicate
		}
		want := mustGen(t, newStorage(Lookup, tbl, Options{Threads: 1}), ids).Clone()
		for _, tech := range []Technique{Lookup, LinearScan, LinearScanBatched} {
			for _, threads := range []int{1, 2, 4} {
				got := mustGen(t, newStorage(tech, tbl, Options{Threads: threads}), ids)
				if i := sameBits(got.Data, want.Data); i >= 0 || got.Rows != batch || got.Cols != dim {
					t.Fatalf("%s Threads %d batch %d: %d×%d, first differing element %d",
						tech.Key(), threads, batch, got.Rows, got.Cols, i)
				}
			}
		}
	}
}

// TestTracedBatchTraceIndependentOfThreads: memtrace.Tracer appends
// without a lock, so a traced generator runs its batch on one goroutine
// and records the trace a Threads: 1 run records. Run it under -race.
func TestTracedBatchTraceIndependentOfThreads(t *testing.T) {
	tbl := testTable(256, 4, 41)
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i*97) % 256
	}
	for _, tech := range []Technique{Lookup, LinearScan, LinearScanBatched} {
		var ref memtrace.Trace
		for _, threads := range []int{1, 2, 4} {
			tracer := memtrace.NewEnabled()
			tr := traceOf(tracer, newStorage(tech, tbl, Options{Tracer: tracer, Threads: threads}), ids)
			if threads == 1 {
				ref = tr
			} else if !tr.Equal(ref) {
				t.Errorf("%s: Threads %d trace (%d touches) differs from Threads 1 (%d touches) at %d",
					tech.Key(), threads, len(tr), len(ref), ref.FirstDiff(tr))
			}
		}
	}
}

// FuzzScanKernel checks the packed kernel against the float CondCopy
// reference over arbitrary shapes (rows % 4 ≠ 0, odd dim, up to three row
// blocks and a partial one, so ids fall on both sides of block edges),
// duplicate ids, and tables mixing fuzzed bit patterns with scanSpecials.
func FuzzScanKernel(f *testing.F) {
	f.Add(uint16(3), uint8(63), []byte{0, 3, 3}, []byte{})      // 4 rows, dim 64
	f.Add(uint16(6), uint8(2), []byte{6, 0, 6, 2, 0}, []byte{}) // 7 rows, dim 3
	f.Add(uint16(0), uint8(0), []byte{0, 0}, []byte{})          // 1 row, dim 1
	f.Add(uint16(64), uint8(64), []byte{64, 0, 33}, []byte{1, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Add(uint16(223), uint8(63), []byte{63, 64, 127, 128, 191, 192, 223, 0}, []byte{}) // 3½ blocks of 64 rows, dim 64
	f.Fuzz(func(t *testing.T, rowsB uint16, dimB uint8, idBytes, payload []byte) {
		dim := 1 + int(dimB)%70
		step := max(1, scanBlockWords/((dim+1)/2))
		rows := 1 + int(rowsB)%(3*step+step/2)
		tbl := tensor.New(rows, dim)
		for k := range tbl.Data {
			bits := uint32(k) * 0x9e3779b9
			if n := len(payload) / 4; n > 0 {
				bits = binary.LittleEndian.Uint32(payload[4*(k%n):])
			}
			if k%3 == 0 {
				bits = scanSpecials[(k/3)%len(scanSpecials)]
			}
			tbl.Data[k] = math.Float32frombits(bits)
		}
		ids := make([]uint64, min(len(idBytes), 64))
		for i := range ids {
			// Past 256 rows a byte spreads over the table instead of wrapping.
			ids[i] = uint64(idBytes[i]) * uint64(max(rows, 256)) / 256 % uint64(rows)
		}
		p := packTable(tbl.Rows, tbl.Cols, Options{Table: tbl}.rowSource())
		acc := make([]uint64, len(ids)*p.width)
		p.scan(ids, acc)
		got, want := make([]float32, dim), make([]float32, dim)
		for q, id := range ids {
			unpackRow(got, acc[q*p.width:(q+1)*p.width])
			clear(want)
			for r := 0; r < rows; r++ {
				oblivious.CondCopy(oblivious.Eq(uint64(r), id), want, tbl.Row(r))
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%d×%d, id %d: element %d is %08x, want %08x",
					rows, dim, id, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}
