package core

import (
	"math"

	"secemb/internal/oblivious"
)

// packedTable is the table both oblivious scans blend, stored as uint64
// words with two float32 bit patterns per word: element 2j of a row is the
// low half of the row's word j and element 2j+1 the high half; an odd
// dim's last high half is zero. The blend costs a fixed number of
// operations per word, so packing halves its work; oblivious.ScanBlock runs
// it four words per AVX2 instruction on amd64 and in portable Go elsewhere.
type packedTable struct {
	words []uint64
	rows  int
	dim   int
	width int // words per row, ⌈dim/2⌉
}

// packTable packs the rows × dim table src yields, one row at a time.
func packTable(rows, dim int, src rowSource) packedTable {
	p := packedTable{rows: rows, dim: dim, width: (dim + 1) / 2}
	p.words = make([]uint64, rows*p.width)
	row := make([]uint32, dim)
	for r := 0; r < rows; r++ {
		src(r, row)
		packRow(p.words[r*p.width:(r+1)*p.width], row)
	}
	return p
}

// packRow packs the float32 bit patterns of src into dst, the inverse of
// unpackRow.
func packRow(dst []uint64, src []uint32) {
	dst = dst[:(len(src)+1)/2]
	for j := 0; j+1 < len(src); j += 2 {
		dst[j/2] = uint64(src[j]) | uint64(src[j+1])<<32
	}
	if len(src)%2 == 1 {
		dst[len(dst)-1] = uint64(src[len(src)-1])
	}
}

func (p *packedTable) Rows() int       { return p.rows }
func (p *packedTable) Dim() int        { return p.dim }
func (p *packedTable) NumBytes() int64 { return int64(len(p.words)) * 8 }

// scanBlockWords is the size of the row block the scan blends in one
// oblivious.ScanBlock call: 2 048 words, 16 KiB, half of a 32 KiB L1 data
// cache, so a block stays cached while every query of the batch reads it
// (64 rows at dim 64).
const scanBlockWords = 2048

// scan ORs row ids[q] of the table into acc[q*width:(q+1)*width] for every
// query q; acc must hold len(ids)*width zeroed words and every id must be
// below rows. The table goes by in blocks of scanBlockWords/width rows (at
// least one), and one oblivious.ScanBlock call per block reads and masks
// every row of it for every query. Starting from zero, with exactly one
// matching row per id, the OR equals CondCopy's d ^= (d^s)&m bit for bit.
// Addresses and control flow depend only on rows, width and len(ids).
//
// secemb:secret ids acc
func (p *packedTable) scan(ids, acc []uint64) {
	w := p.width
	acc = acc[:len(ids)*w]
	step := max(1, scanBlockWords/w)
	for r := 0; r < p.rows; r += step {
		oblivious.ScanBlock(acc, p.words[r*w:min(r+step, p.rows)*w], ids, w, r)
	}
}

// unpackRow writes the len(dst) float32s packed in src into dst.
//
// secemb:secret dst src
func unpackRow(dst []float32, src []uint64) {
	src = src[:(len(dst)+1)/2]
	for j := 0; j+1 < len(dst); j += 2 {
		w := src[j/2]
		dst[j] = math.Float32frombits(uint32(w))
		dst[j+1] = math.Float32frombits(uint32(w >> 32))
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = math.Float32frombits(uint32(src[len(src)-1]))
	}
}

// resetWords returns buf resliced to n zeroed words, growing it if needed.
func resetWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
