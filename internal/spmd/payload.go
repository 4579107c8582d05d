package spmd

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// This file is the payload table: the one place a payload type is
// described. A registration (a line of the table below) yields the type's
// price, its wire encoding and its decoding; its position in the table is
// its wire kind. The only other mention of a type is its dispatch line in
// describe. To add a type, register scalar, flat or rows of its element
// description with a sample value and add its line to describe: the tests
// iterate the table, so that prices, round-trips and fuzz-seeds it.

// desc is one payload type's whole description.
type desc struct {
	kind   byte // position in table, first byte on the wire
	sample any  // a value of the type: what it is filed under, and the tests' corpus
	w      int  // price of one element: n of them (describe counts) are n*w bytes
	// put appends the body, what follows the kind byte, to buf.
	put func(buf []byte, v any) []byte
	// get decodes the body. The decoder goes in and out by value to stay on
	// the stack: a pointer through a func value is an allocation per message.
	get func(d decoder) (any, decoder)
}

// table holds every descriptor at its wire kind (part of no on-disk
// format: both codec ends always run the same build); basic files the
// descriptors of the basic scalar types by reflect.Kind for describe.
var (
	table []*desc
	basic [reflect.Complex128 + 1]*desc
)

func reg(d desc, sample any) *desc {
	d.kind, d.sample = byte(len(table)), sample
	table = append(table, &d)
	if t := reflect.TypeOf(sample); t != nil && int(t.Kind()) < len(basic) {
		basic[t.Kind()] = &d
	}
	return &d
}

// elem describes a fixed-width element type: its wire width (also its
// price) and its span codecs. puts appends xs to buf, w bytes each; gets
// fills dst from exactly w*len(dst) bytes of src. Spans are the unit of
// work so that the indirect call and the length check are paid per slice.
type elem[T any] struct {
	w    int
	puts func(buf []byte, xs []T) []byte
	gets func(dst []T, src []byte)
}

var le = binary.LittleEndian

// The span codecs of the element types that travel in bulk: top-level
// functions on purpose, because the same loops as closures in a generic
// constructor, or over per-element func values as in each, run at a third
// of the speed (EXPERIMENTS.md).

func puts32[T ~int32 | ~uint32](buf []byte, xs []T) []byte {
	for _, x := range xs {
		buf = le.AppendUint32(buf, uint32(x))
	}
	return buf
}

func gets32[T ~int32 | ~uint32](dst []T, src []byte) {
	for i := range dst {
		dst[i], src = T(le.Uint32(src)), src[4:]
	}
}

func putsF64(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = le.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func getsF64(dst []float64, src []byte) {
	for i := range dst {
		dst[i], src = math.Float64frombits(le.Uint64(src)), src[8:]
	}
}

func putsC128(buf []byte, xs []complex128) []byte {
	for _, x := range xs {
		buf = le.AppendUint64(le.AppendUint64(buf, math.Float64bits(real(x))), math.Float64bits(imag(x)))
	}
	return buf
}

func getsC128(dst []complex128, src []byte) {
	for i := range dst {
		re, im := math.Float64frombits(le.Uint64(src)), math.Float64frombits(le.Uint64(src[8:]))
		dst[i], src = complex(re, im), src[16:]
	}
}

// each is the element description of a type that travels one at a time,
// or hardly ever, or whose element is itself a short span: its spans loop
// over per-element codecs.
func each[T any](w int, put func([]byte, T) []byte, get func([]byte) T) elem[T] {
	return elem[T]{w, func(buf []byte, xs []T) []byte {
		for _, x := range xs {
			buf = put(buf, x)
		}
		return buf
	}, func(dst []T, src []byte) {
		for i := range dst {
			dst[i], src = get(src), src[w:]
		}
	}}
}

// ints describes the integer types that are no bulk payload by their low
// w bytes, little-endian (int and uintptr are 64 bits on the wire whatever
// the host's word).
func ints[T ~int8 | ~int16 | ~uint16 | ~int64 | ~int | ~uint64 | ~uintptr](w int) elem[T] {
	return each(w, func(b []byte, x T) []byte { return le.AppendUint64(b, uint64(x))[:len(b)+w] }, func(b []byte) T {
		var word [8]byte
		copy(word[:], b[:w])
		return T(le.Uint64(word[:]))
	})
}

func bit(x bool) byte {
	if x {
		return 1
	}
	return 0
}

// The element types with more than one registration.
var (
	elI32 = elem[int32]{4, puts32[int32], gets32[int32]}
	elI64 = ints[int64](8)
	elInt = ints[int](8)
	elU8  = elem[uint8]{1, func(b, xs []byte) []byte { return append(b, xs...) }, func(dst, src []byte) { copy(dst, src) }}
	elU32 = elem[uint32]{4, puts32[uint32], gets32[uint32]}
	elF32 = each(4, func(b []byte, x float32) []byte { return le.AppendUint32(b, math.Float32bits(x)) }, func(b []byte) float32 { return math.Float32frombits(le.Uint32(b)) })
	elF64 = elem[float64]{8, putsF64, getsF64}
	elC64 = each(8, func(b []byte, x complex64) []byte {
		return le.AppendUint32(le.AppendUint32(b, math.Float32bits(real(x))), math.Float32bits(imag(x)))
	}, func(b []byte) complex64 {
		return complex(math.Float32frombits(le.Uint32(b)), math.Float32frombits(le.Uint32(b[4:])))
	})
	elC128 = elem[complex128]{16, putsC128, getsC128}
	// cfd's Cell, airshed's Conc, fdtd's Vec3: an element is a float64 span.
	elVec3 = each(24, func(b []byte, x [3]float64) []byte { return putsF64(b, x[:]) }, func(b []byte) (x [3]float64) { getsF64(x[:], b); return })
	elVec4 = each(32, func(b []byte, x [4]float64) []byte { return putsF64(b, x[:]) }, func(b []byte) (x [4]float64) { getsF64(x[:], b); return })
)

// The table: one line per payload type (the basic scalars need no name:
// reg files them under their kind).
var (
	dNil    = reg(desc{put: func(buf []byte, _ any) []byte { return buf }, get: func(d decoder) (any, decoder) { return nil, d }}, nil)
	_       = reg(scalar(each(1, func(b []byte, x bool) []byte { return append(b, bit(x)) }, func(b []byte) bool { return b[0] != 0 })), true)
	_       = reg(scalar(ints[int8](1)), int8(-5))
	_       = reg(scalar(ints[int16](2)), int16(-300))
	_       = reg(scalar(elI32), int32(-70000))
	_       = reg(scalar(elI64), int64(-1<<40))
	_       = reg(scalar(elInt), int(-42))
	_       = reg(scalar(elU8), uint8(5))
	_       = reg(scalar(ints[uint16](2)), uint16(300))
	_       = reg(scalar(elU32), uint32(70000))
	_       = reg(scalar(ints[uint64](8)), uint64(1<<40))
	_       = reg(scalar(ints[uintptr](8)), uintptr(7))
	_       = reg(scalar(elF32), float32(1.5))
	_       = reg(scalar(elF64), math.NaN())
	_       = reg(scalar(elC64), complex64(complex(1, -2)))
	_       = reg(scalar(elC128), complex(3.5, math.Inf(-1)))
	dPair   = reg(scalar(each(16, func(b []byte, x [2]int64) []byte { return elI64.puts(b, x[:]) }, func(b []byte) (x [2]int64) { elI64.gets(x[:], b[:16]); return })), [2]int64{3, -4})
	dVec3   = reg(scalar(elVec3), [3]float64{1.5, 2.5, 3.5})
	dVec4   = reg(scalar(elVec4), [4]float64{1, 2, 3, 4})
	dString = reg(desc{w: 1, put: func(buf []byte, v any) []byte { return appendString(buf, v.(string)) }, get: func(d decoder) (any, decoder) { s := d.string(); return s, d }}, "hello")
	dBytes  = reg(flat(elU8), []byte{1, 2, 3})
	dI32s   = reg(flat(elI32), []int32{-1, 0, 1 << 30})
	dU32s   = reg(flat(elU32), []uint32{0, 1, math.MaxUint32})
	dI64s   = reg(flat(elI64), []int64{-1 << 60, 1 << 60})
	dInts   = reg(flat(elInt), []int{1, -2, 3})
	dF32s   = reg(flat(elF32), []float32{1.25, -2.5})
	dF64s   = reg(flat(elF64), []float64{0.1, 0.2, math.NaN()})
	dC64s   = reg(flat(elC64), []complex64{complex(1, 2)})
	dC128s  = reg(flat(elC128), []complex128{complex(0.5, -0.5), complex(math.NaN(), 0)})
	dVec3s  = reg(flat(elVec3), [][3]float64{{1, 2, 3}, {4, 5, 6}})
	dVec4s  = reg(flat(elVec4), [][4]float64{{1, 2, 3, 4}})
	dI32ss  = reg(rows(elI32), [][]int32{{-1, 2}, {}, nil})
	dF64ss  = reg(rows(elF64), [][]float64{{1, 2}, nil, {}})
	dC128ss = reg(rows(elC128), [][]complex128{{complex(1, 1)}, nil})
)

// describe maps a payload to its descriptor and counts its elements. For
// a payload the table does not list (a Sized application type, or no
// payload at all) d is nil, and n is its price if the caller asks for one,
// a panic if it has none. Only BytesOf asks: the question rides on this
// call so that BytesOf is small enough to inline (a second call there
// makes every send half again as dear), and describe is a type switch
// because a map keyed by reflect.Type costs five times as much.
func describe(v any, price bool) (d *desc, n int) {
	switch x := v.(type) {
	case nil:
		return dNil, 0
	case bool, int8, int16, int32, int64, int, uint8, uint16, uint32, uint64, uintptr,
		float32, float64, complex64, complex128:
		return basic[reflect.TypeOf(v).Kind()], 1
	case [2]int64:
		return dPair, 1
	case [3]float64:
		return dVec3, 1
	case [4]float64:
		return dVec4, 1
	case string:
		return dString, len(x)
	case []byte:
		return dBytes, len(x)
	case []int32:
		return dI32s, len(x)
	case []uint32:
		return dU32s, len(x)
	case []int64:
		return dI64s, len(x)
	case []int:
		return dInts, len(x)
	case []float32:
		return dF32s, len(x)
	case []float64:
		return dF64s, len(x)
	case []complex64:
		return dC64s, len(x)
	case []complex128:
		return dC128s, len(x)
	case [][3]float64:
		return dVec3s, len(x)
	case [][4]float64:
		return dVec4s, len(x)
	case [][]int32:
		return dI32ss, total(x)
	case [][]float64:
		return dF64ss, total(x)
	case [][]complex128:
		return dC128ss, total(x)
	}
	if price {
		if n = unlisted(v); n < 0 {
			panic(fmt.Sprintf("spmd: payload type %T has no price: it is not in the payload table, not spmd.Sized, and not a slice of such", v))
		}
	}
	return nil, n
}

func total[T any](x [][]T) (n int) {
	for _, row := range x {
		n += len(row)
	}
	return n
}

// scalar is the descriptor of one T.
func scalar[T any](e elem[T]) desc {
	return desc{w: e.w, put: func(buf []byte, v any) []byte { return e.puts(buf, []T{v.(T)}) },
		get: func(d decoder) (any, decoder) {
			var x [1]T
			if src := d.take(e.w); src != nil {
				e.gets(x[:], src)
			}
			return x[0], d
		}}
}

// putSpan appends a length-prefixed []T; getSpan undoes it. A length is
// believed only up to the elements the remaining bytes can hold, so a
// decoded slice never occupies more memory than its encoding did.
func putSpan[T any](buf []byte, e *elem[T], xs []T) []byte {
	return e.puts(slices.Grow(appendSliceLen(buf, len(xs), xs == nil), e.w*len(xs)), xs)
}

func getSpan[T any](d *decoder, e *elem[T]) []T {
	n, isNil := d.sliceLen(e.w)
	if isNil {
		return nil
	}
	out := make([]T, n)
	e.gets(out, d.take(n*e.w))
	return out
}

// flat is the descriptor of []T.
func flat[T any](e elem[T]) desc {
	return desc{w: e.w, put: func(buf []byte, v any) []byte { return putSpan(buf, &e, v.([]T)) },
		get: func(d decoder) (any, decoder) { xs := getSpan(&d, &e); return xs, d }}
}

// rows is the descriptor of [][]T: priced as the sum of its rows, nil
// and empty kept apart per row as well as for the whole.
func rows[T any](e elem[T]) desc {
	return desc{w: e.w, put: func(buf []byte, v any) []byte {
		x := v.([][]T)
		buf = appendSliceLen(buf, len(x), x == nil)
		for _, row := range x {
			buf = putSpan(buf, &e, row)
		}
		return buf
	}, get: func(d decoder) (any, decoder) {
		// A row costs at least its one-byte header on the wire.
		n, isNil := d.sliceLen(1)
		if isNil {
			return [][]T(nil), d
		}
		out := make([][]T, n)
		for i := range out {
			out[i] = getSpan(&d, &e)
		}
		return out, d
	}}
}
