package spmd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// structuralBytes prices a table type without the table: fixed-width
// leaves at their width (int and uintptr at 64 bits), strings and slices
// by content, a Wrapped by its K header words and its body.
func structuralBytes(rv reflect.Value) int {
	if rv.IsValid() && rv.Type() == reflect.TypeOf(Wrapped{}) {
		w := rv.Interface().(Wrapped)
		return 8*w.K + structuralBytes(reflect.ValueOf(w.Body))
	}
	switch rv.Kind() {
	case reflect.Invalid:
		return 0
	case reflect.String:
		return rv.Len()
	case reflect.Slice, reflect.Array:
		n := 0
		for i := 0; i < rv.Len(); i++ {
			n += structuralBytes(rv.Index(i))
		}
		return n
	case reflect.Int, reflect.Uint, reflect.Uintptr:
		return 8
	default:
		return int(rv.Type().Size())
	}
}

func TestBytesOf(t *testing.T) {
	// Every registration, priced against an oracle that does not read it.
	for _, d := range table {
		if got, want := BytesOf(d.sample), structuralBytes(reflect.ValueOf(d.sample)); got != want {
			t.Errorf("BytesOf(%T %v) = %d, want %d", d.sample, d.sample, got, want)
		}
	}
	// The prices the meters have always read, spelled out.
	cases := []struct {
		in   any
		want int
	}{
		{nil, 0},
		{[]byte{1, 2, 3}, 3},
		{[]int32{1, 2}, 8},
		{[]uint32{1}, 4},
		{[]int64{1, 2, 3}, 24},
		{[]int{1}, 8},
		{[]float32{1, 2}, 8},
		{[]float64{1, 2}, 16},
		{[]complex64{1}, 8},
		{[]complex128{1, 2}, 32},
		{[][]float64{{1, 2}, {3}}, 24},
		{[][]complex128{{1}, {2, 3}}, 48},
		{true, 1},
		{int8(1), 1},
		{uint16(1), 2},
		{int32(1), 4},
		{float32(1), 4},
		{int(1), 8},
		{int64(1), 8},
		{float64(1), 8},
		{complex64(1), 8},
		{complex128(1), 16},
		{"abcd", 4},
		{[2]int64{1, 2}, 16},
		{[3]float64{1, 2, 3}, 24},
		{[4]float64{1, 2, 3, 4}, 32},
		{[][3]float64{{1, 2, 3}}, 24},
		{[][4]float64{{1, 2, 3, 4}}, 32},
		{[][]int32{{1, 2}, nil, {3}}, 12},
	}
	for _, tc := range cases {
		if got := BytesOf(tc.in); got != tc.want {
			t.Errorf("BytesOf(%T %v) = %d, want %d", tc.in, tc.in, got, tc.want)
		}
	}
}

// TestUnpricedPayload: nothing is priced by default. Pricing a payload
// the table does not describe panics naming its type.
func TestUnpricedPayload(t *testing.T) {
	for _, v := range []any{struct{ X int }{1}, map[int]int{}, []struct{ X int }{{1}}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprintf("%T", v)) || !strings.Contains(msg, "no price") {
					t.Errorf("BytesOf(%T) panicked with %q, want a panic naming the type", v, msg)
				}
			}()
			BytesOf(v)
		}()
	}
}
