package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// matVecTarget is the per-chunk work (multiply-adds) of the parallel matrix
// kernels: large enough that chunk compute dominates pool dispatch, so the
// small dense layers of the harness CNNs stay on the inline serial path.
const matVecTarget = 1 << 16

// Matrix is a dense row-major matrix of float64. It backs the fully-connected
// and convolutional layers of the neural-network substrate.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix size %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes dst = m · x. dst must have length m.Rows and x length
// m.Cols. The kernel is written to let the compiler keep the inner loop free
// of bounds checks.
func (m *Matrix) MatVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch (%dx%d)·%d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	// Row-chunked: each output element is one row's dot product, written by
	// exactly one chunk, so the result is identical at any parallelism.
	// Four rows per pass share each x[j]; each row still sums in j order.
	parallel.For(m.Rows, parallel.GrainFor(m.Cols, matVecTarget), func(lo, hi int) {
		c, i := m.Cols, lo
		for ; i+4 <= hi; i += 4 {
			r0, r1 := m.Data[i*c:][:len(x)], m.Data[(i+1)*c:][:len(x)]
			r2, r3 := m.Data[(i+2)*c:][:len(x)], m.Data[(i+3)*c:][:len(x)]
			var s0, s1, s2, s3 float64
			for j, xj := range x {
				s0 += r0[j] * xj
				s1 += r1[j] * xj
				s2 += r2[j] * xj
				s3 += r3[j] * xj
			}
			dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
		}
		for ; i < hi; i++ {
			row := m.Data[i*c:][:len(x)]
			var s float64
			for j, xj := range x {
				s += row[j] * xj
			}
			dst[i] = s
		}
	})
}

// MatVecT computes dst = mᵀ · x (used by backprop through a dense layer).
// dst must have length m.Cols and x length m.Rows.
func (m *Matrix) MatVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch (%dx%d)ᵀ·%d -> %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	// Column-chunked: dst[j] accumulates over rows i in ascending order
	// inside exactly one chunk, so the per-element addition order — and
	// therefore the result — is identical at any parallelism.
	parallel.For(m.Cols, parallel.GrainFor(m.Rows, matVecTarget), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dst[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			xi := x[i]
			if xi == 0 {
				continue
			}
			row := m.Data[i*m.Cols : i*m.Cols+m.Cols]
			for j := lo; j < hi; j++ {
				dst[j] += row[j] * xi
			}
		}
	})
}

// AddOuter accumulates m += alpha · a·bᵀ (gradient of a dense layer's weight
// matrix: dL/dW += δ·xᵀ).
func (m *Matrix) AddOuter(alpha float64, a, b []float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch %dx%d vs %d,%d",
			m.Rows, m.Cols, len(a), len(b)))
	}
	// Row-chunked: each matrix row is owned by exactly one chunk.
	parallel.For(m.Rows, parallel.GrainFor(m.Cols, matVecTarget), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := alpha * a[i]
			if ai == 0 {
				continue
			}
			row := m.Data[i*m.Cols : i*m.Cols+m.Cols]
			for j := range row {
				row[j] += ai * b[j]
			}
		}
	})
}
