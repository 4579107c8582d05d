// Package array provides dense row-major 2D and 3D arrays used as the
// local sections of distributed grids and as whole grids in sequential
// (version-1) programs.
package array

import "fmt"

// Dense2D is a dense NX×NY array stored row-major: element (i,j) lives at
// Data[i*NY+j].
type Dense2D[T any] struct {
	NX, NY int
	Data   []T
}

// New2D allocates a zeroed NX×NY array.
func New2D[T any](nx, ny int) *Dense2D[T] {
	if nx < 0 || ny < 0 {
		panic(fmt.Sprintf("array: invalid dims %dx%d", nx, ny))
	}
	return &Dense2D[T]{NX: nx, NY: ny, Data: make([]T, nx*ny)}
}

// At returns element (i, j).
func (a *Dense2D[T]) At(i, j int) T { return a.Data[i*a.NY+j] }

// Set assigns element (i, j).
func (a *Dense2D[T]) Set(i, j int, v T) { a.Data[i*a.NY+j] = v }

// Row returns row i as a slice aliasing the array's storage.
func (a *Dense2D[T]) Row(i int) []T { return a.Data[i*a.NY : (i+1)*a.NY] }

// Col copies column j into dst (length NX) and returns it; dst may be nil.
func (a *Dense2D[T]) Col(j int, dst []T) []T {
	if dst == nil {
		dst = make([]T, a.NX)
	}
	for i := 0; i < a.NX; i++ {
		dst[i] = a.Data[i*a.NY+j]
	}
	return dst
}

// SetCol writes src (length NX) into column j.
func (a *Dense2D[T]) SetCol(j int, src []T) {
	for i := 0; i < a.NX; i++ {
		a.Data[i*a.NY+j] = src[i]
	}
}

// Fill sets every element to f(i, j).
func (a *Dense2D[T]) Fill(f func(i, j int) T) {
	for i := 0; i < a.NX; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] = f(i, j)
		}
	}
}

// Clone returns a deep copy.
func (a *Dense2D[T]) Clone() *Dense2D[T] {
	out := New2D[T](a.NX, a.NY)
	copy(out.Data, a.Data)
	return out
}

// Transpose returns a new NY×NX array with out(j,i) = a(i,j).
func (a *Dense2D[T]) Transpose() *Dense2D[T] {
	out := New2D[T](a.NY, a.NX)
	for i := 0; i < a.NX; i++ {
		for j := 0; j < a.NY; j++ {
			out.Data[j*a.NX+i] = a.Data[i*a.NY+j]
		}
	}
	return out
}

// Dense3D is a dense NX×NY×NZ array stored with x slowest: element
// (i,j,k) lives at Data[(i*NY+j)*NZ+k].
type Dense3D[T any] struct {
	NX, NY, NZ int
	Data       []T
}

// New3D allocates a zeroed NX×NY×NZ array.
func New3D[T any](nx, ny, nz int) *Dense3D[T] {
	if nx < 0 || ny < 0 || nz < 0 {
		panic(fmt.Sprintf("array: invalid dims %dx%dx%d", nx, ny, nz))
	}
	return &Dense3D[T]{NX: nx, NY: ny, NZ: nz, Data: make([]T, nx*ny*nz)}
}

// At returns element (i, j, k).
func (a *Dense3D[T]) At(i, j, k int) T { return a.Data[(i*a.NY+j)*a.NZ+k] }

// Set assigns element (i, j, k).
func (a *Dense3D[T]) Set(i, j, k int, v T) { a.Data[(i*a.NY+j)*a.NZ+k] = v }

// Plane returns the (j,k) plane at index i as a slice aliasing storage.
func (a *Dense3D[T]) Plane(i int) []T { return a.Data[i*a.NY*a.NZ : (i+1)*a.NY*a.NZ] }

// Pencil returns the k-line at (i, j) as a slice aliasing storage.
func (a *Dense3D[T]) Pencil(i, j int) []T {
	base := (i*a.NY + j) * a.NZ
	return a.Data[base : base+a.NZ]
}

// Fill sets every element to f(i, j, k).
func (a *Dense3D[T]) Fill(f func(i, j, k int) T) {
	idx := 0
	for i := 0; i < a.NX; i++ {
		for j := 0; j < a.NY; j++ {
			for k := 0; k < a.NZ; k++ {
				a.Data[idx] = f(i, j, k)
				idx++
			}
		}
	}
}

// Clone returns a deep copy.
func (a *Dense3D[T]) Clone() *Dense3D[T] {
	out := New3D[T](a.NX, a.NY, a.NZ)
	copy(out.Data, a.Data)
	return out
}
