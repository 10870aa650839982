package tensor

import (
	"math"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad matrix shape %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At/Set mismatch: %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row(1) = %v", row)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliases storage")
	}
}

func TestMatVec(t *testing.T) {
	// [1 2; 3 4] · [5, 6] = [17, 39]
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	dst := make([]float64, 2)
	m.MatVec(dst, []float64{5, 6})
	if dst[0] != 17 || dst[1] != 39 {
		t.Fatalf("MatVec = %v, want [17 39]", dst)
	}
}

// MatVec runs four rows per pass and the remainder one by one; every row
// must equal the one-row dot product summed in column order, bit for bit —
// with NaN and ±Inf entries, for row counts around the block of four, and
// with parallel chunk boundaries that split blocks (192 columns make
// 341-row chunks).
func TestMatVecMatchesOneRowReference(t *testing.T) {
	rng := NewRNG(5)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, workers := range []int{1, 2} {
		withWorkers(t, workers)
		for _, rows := range []int{1, 3, 4, 5, 1023, 1024} {
			for _, cols := range []int{1, 7, 192} {
				m := NewMatrix(rows, cols)
				rng.NormVec(m.Data, 0, 1)
				x := rng.NormVec(make([]float64, cols), 0, 1)
				// Sparse enough that most rows stay finite.
				for k := 0; k < len(m.Data); k += 997 {
					m.Data[k] = specials[k%len(specials)]
				}
				if cols == 7 {
					x[3] = math.Inf(1)
				}
				got := make([]float64, rows)
				m.MatVec(got, x)
				for i := range got {
					var want float64
					for j, w := range m.Row(i) {
						want += w * x[j]
					}
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("workers %d, %dx%d, row %d: got %v (%#x), reference %v (%#x)", workers, rows, cols,
							i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestMatVecT(t *testing.T) {
	// [1 2; 3 4]ᵀ · [5, 6] = [1·5+3·6, 2·5+4·6] = [23, 34]
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	dst := make([]float64, 2)
	m.MatVecT(dst, []float64{5, 6})
	if dst[0] != 23 || dst[1] != 34 {
		t.Fatalf("MatVecT = %v, want [23 34]", dst)
	}
}

// MatVecT must agree with an explicit transpose for random matrices.
func TestMatVecTMatchesTranspose(t *testing.T) {
	rng := NewRNG(23)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		rng.NormVec(m.Data, 0, 1)
		x := rng.NormVec(make([]float64, rows), 0, 1)

		got := make([]float64, cols)
		m.MatVecT(got, x)

		// explicit transpose
		tr := NewMatrix(cols, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				tr.Set(j, i, m.At(i, j))
			}
		}
		want := make([]float64, cols)
		tr.MatVec(want, x)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-10 {
				t.Fatalf("trial %d: MatVecT[%d] = %v, transpose gives %v",
					trial, j, got[j], want[j])
			}
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, []float64{1, 2}, []float64{3, 4})
	// 2·[1;2]·[3 4] = [6 8; 12 16]
	want := []float64{6, 8, 12, 16}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
	// accumulation, not assignment
	m.AddOuter(1, []float64{1, 0}, []float64{1, 0})
	if m.At(0, 0) != 7 {
		t.Fatalf("AddOuter does not accumulate: %v", m.At(0, 0))
	}
}

func TestMatrixShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	cases := []func(){
		func() { m.MatVec(make([]float64, 2), make([]float64, 2)) },
		func() { m.MatVecT(make([]float64, 2), make([]float64, 2)) },
		func() { m.AddOuter(1, make([]float64, 3), make([]float64, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}
