package array

import (
	"testing"
	"testing/quick"
)

func TestDense2DBasics(t *testing.T) {
	a := New2D[float64](3, 4)
	if a.NX != 3 || a.NY != 4 || len(a.Data) != 12 {
		t.Fatalf("bad dims: %+v", a)
	}
	a.Set(1, 2, 7.5)
	if a.At(1, 2) != 7.5 {
		t.Error("Set/At roundtrip failed")
	}
	if a.At(0, 0) != 0 {
		t.Error("fresh array not zeroed")
	}
	row := a.Row(1)
	if len(row) != 4 || row[2] != 7.5 {
		t.Errorf("Row(1) = %v", row)
	}
	row[0] = 1 // rows alias storage
	if a.At(1, 0) != 1 {
		t.Error("Row should alias storage")
	}
}

func TestDense2DFillAndClone(t *testing.T) {
	a := New2D[int](4, 5)
	a.Fill(func(i, j int) int { return 10*i + j })
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if a.At(i, j) != 10*i+j {
				t.Fatalf("Fill wrong at (%d,%d)", i, j)
			}
		}
	}
	b := a.Clone()
	b.Set(0, 0, -1)
	if a.At(0, 0) == -1 {
		t.Error("Clone should not share storage")
	}
}

func TestDense2DColOps(t *testing.T) {
	a := New2D[int](3, 3)
	a.Fill(func(i, j int) int { return i*3 + j })
	col := a.Col(1, nil)
	if len(col) != 3 || col[0] != 1 || col[1] != 4 || col[2] != 7 {
		t.Errorf("Col = %v", col)
	}
	a.SetCol(1, []int{9, 9, 9})
	if a.At(0, 1) != 9 || a.At(2, 1) != 9 {
		t.Error("SetCol failed")
	}
	// Reuse buffer path.
	buf := make([]int, 3)
	got := a.Col(0, buf)
	if &got[0] != &buf[0] {
		t.Error("Col should use provided buffer")
	}
}

func TestTranspose(t *testing.T) {
	a := New2D[int](2, 3)
	a.Fill(func(i, j int) int { return i*3 + j })
	b := a.Transpose()
	if b.NX != 3 || b.NY != 2 {
		t.Fatalf("transpose dims %dx%d", b.NX, b.NY)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if b.At(j, i) != a.At(i, j) {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
	// Double transpose is identity.
	c := b.Transpose()
	for k := range a.Data {
		if c.Data[k] != a.Data[k] {
			t.Fatal("double transpose != identity")
		}
	}
}

func TestTransposePropertyQuick(t *testing.T) {
	f := func(nx, ny uint8) bool {
		a := New2D[int](int(nx%20), int(ny%20))
		a.Fill(func(i, j int) int { return i*1000 + j })
		b := a.Transpose().Transpose()
		if b.NX != a.NX || b.NY != a.NY {
			return false
		}
		for k := range a.Data {
			if a.Data[k] != b.Data[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	New2D[int](-1, 2)
}

func TestDense3DBasics(t *testing.T) {
	a := New3D[float64](2, 3, 4)
	if len(a.Data) != 24 {
		t.Fatalf("bad size %d", len(a.Data))
	}
	a.Set(1, 2, 3, 9)
	if a.At(1, 2, 3) != 9 {
		t.Error("3D Set/At roundtrip failed")
	}
	a.Fill(func(i, j, k int) float64 { return float64(i*100 + j*10 + k) })
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if a.At(i, j, k) != float64(i*100+j*10+k) {
					t.Fatalf("3D Fill wrong at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	p := a.Plane(1)
	if len(p) != 12 || p[0] != 100 {
		t.Errorf("Plane = %v", p)
	}
	pen := a.Pencil(1, 2)
	if len(pen) != 4 || pen[0] != 120 || pen[3] != 123 {
		t.Errorf("Pencil(1,2) = %v", pen)
	}
	pen[1] = -1 // pencils alias storage
	if a.At(1, 2, 1) != -1 {
		t.Error("Pencil should alias storage")
	}
	b := a.Clone()
	b.Set(0, 0, 0, -5)
	if a.At(0, 0, 0) == -5 {
		t.Error("3D Clone should not share storage")
	}
}
