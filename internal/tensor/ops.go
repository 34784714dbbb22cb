package tensor

import (
	"fmt"
	"math"
)

// Add returns a+b element-wise.
func Add(a, b *Matrix) *Matrix {
	mustSameShape("Add", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace computes a += b element-wise.
func AddInPlace(a, b *Matrix) {
	mustSameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub returns a-b element-wise.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape("Sub", a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns a*s element-wise.
func Scale(a *Matrix, s float32) *Matrix {
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace computes a *= s element-wise.
func ScaleInPlace(a *Matrix, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AXPY computes y += alpha*x element-wise.
func AXPY(alpha float32, x, y *Matrix) {
	mustSameShape("AXPY", x, y)
	for i, v := range x.Data {
		y.Data[i] += alpha * v
	}
}

// AddRowVec adds the length-Cols vector v to every row of m in place.
// Standard bias broadcast.
func AddRowVec(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec vector len %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// Apply returns a new matrix with fn applied element-wise.
func Apply(m *Matrix, fn func(float32) float32) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// ApplyInPlace applies fn element-wise in place.
func ApplyInPlace(m *Matrix, fn func(float32) float32) {
	for i, v := range m.Data {
		m.Data[i] = fn(v)
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func Sum(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// ColSums returns the per-column sums of m as a length-Cols slice.
// Used for bias gradients.
func ColSums(m *Matrix) []float32 {
	out := make([]float32, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out[c] += v
		}
	}
	return out
}

// MaxAbsDiff returns the largest |a-b| over all elements.
func MaxAbsDiff(a, b *Matrix) float64 {
	mustSameShape("MaxAbsDiff", a, b)
	var worst float64
	for i, v := range a.Data {
		d := math.Abs(float64(v) - float64(b.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// AllClose reports whether every pair of elements differs by at most tol.
func AllClose(a, b *Matrix, tol float64) bool {
	return a.SameShape(b) && MaxAbsDiff(a, b) <= tol
}

// Norm2 returns the Frobenius norm of m.
func Norm2(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Concat stacks matrices horizontally: all inputs share Rows; the result
// has the summed column count. Used by DLRM feature interaction.
func Concat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: Concat row mismatch %d vs %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		dst := out.Row(r)
		off := 0
		for _, m := range ms {
			copy(dst[off:off+m.Cols], m.Row(r))
			off += m.Cols
		}
	}
	return out
}

// SliceCols returns the column range [lo,hi) of m as a new matrix.
func SliceCols(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of %d", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// SliceRows returns the row range [lo,hi) of m as a new matrix (copied).
func SliceRows(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of %d", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

func mustSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
