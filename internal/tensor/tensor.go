// Package tensor provides dense float32 matrices and the small set of
// linear-algebra kernels the rest of the repository is built on: blocked,
// goroutine-parallel matrix multiplication, element-wise transforms, and
// random initialization.
//
// Everything in the module — the neural-network layers, DHE decoders,
// DLRM MLPs and the transformer — bottoms out in these kernels, so their
// performance character (compute-bound matmul vs memory-bound streaming)
// determines the latency shapes the paper's evaluation depends on.
//
// Matrices are row-major. float32 is used throughout to keep memory
// footprints comparable to the paper's PyTorch models (Table VI and the
// LLM footprint analysis count 4-byte elements).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major float32 matrix.
//
// The zero value is an empty 0×0 matrix. Use New or one of the
// initializer helpers for anything else.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements, want %d", len(data), rows*cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewUniform returns a rows×cols matrix with entries drawn uniformly from
// [-scale, scale] using rng.
func NewUniform(rows, cols int, scale float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return m
}

// NewXavier returns a rows×cols matrix initialized with Xavier/Glorot
// uniform initialization, the scheme DLRM's reference implementation uses
// for its MLPs: U(-sqrt(6/(in+out)), +sqrt(6/(in+out))).
func NewXavier(in, out int, rng *rand.Rand) *Matrix {
	scale := math.Sqrt(6.0 / float64(in+out))
	return NewUniform(in, out, scale, rng)
}

// NewGaussian returns a rows×cols matrix with N(0, std²) entries.
func NewGaussian(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices fully and large ones by shape only.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(r, c))
		}
	}
	return s + "]"
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool {
	return m.Rows == n.Rows && m.Cols == n.Cols
}

// NumBytes returns the storage footprint of the matrix payload in bytes.
func (m *Matrix) NumBytes() int64 { return int64(len(m.Data)) * 4 }
