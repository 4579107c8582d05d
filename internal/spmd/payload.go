package spmd

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// This file is the payload table: the one place a payload type is
// described. A registration yields the type's price, its wire encoding
// and its decoding; its position in the table is its wire kind. A
// built-in type's only other mention is its dispatch line in describe; an
// application type registers from an initializer of its own package
// (Register, RegisterSlice) and describe finds it by its reflect.Type.
// Generic application wrappers register nothing: they send a Wrapped. The
// tests iterate the table, so that prices, round-trips and fuzz-seeds
// every registration.

// desc is one payload type's whole description.
type desc struct {
	kind   byte // position in table, first byte on the wire
	sample any  // a value of the type: what it is filed under, and the tests' corpus
	w      int  // price of one unit: n of them (describe counts) are n*w bytes
	// units counts a value's units for an application kind; describe's
	// type switch counts a built-in kind's itself.
	units func(v any) int
	// put appends the body, what follows the kind byte, to buf.
	put func(buf []byte, v any) []byte
	// get decodes the body. The decoder goes in and out by value to stay on
	// the stack: a pointer through a func value is an allocation per message.
	get func(d decoder) (any, decoder)
}

// table holds every descriptor at its wire kind. Kinds are assigned in
// registration order during package initialization, never later, so every
// process of one binary agrees on them (part of no on-disk format); basic
// files the descriptors of the predeclared scalar types by reflect.Kind
// for describe, and apps the application types by reflect.Type.
var (
	table []*desc
	basic [reflect.Complex128 + 1]*desc
	apps  = map[reflect.Type]*desc{}
)

func reg(d desc, sample any) *desc {
	d.kind, d.sample = byte(len(table)), sample
	table = append(table, &d)
	if t := reflect.TypeOf(sample); t != nil && t.Kind() <= reflect.Complex128 && t.PkgPath() == "" {
		basic[t.Kind()] = &d
	}
	return &d
}

// Elem describes a fixed-width element type: its wire width, its
// per-element codec (put appends one x; get reads one from exactly w
// bytes) and its span codecs. puts appends xs to buf, w bytes each; gets
// fills dst from exactly w*len(dst) bytes of src. Spans are the unit of
// work so that the indirect call and the length check are paid per slice.
type Elem[T any] struct {
	w    int
	put  func(buf []byte, x T) []byte
	get  func(src []byte) T
	puts func(buf []byte, xs []T) []byte
	gets func(dst []T, src []byte)
}

var le = binary.LittleEndian

// The codecs of the element types that travel in bulk: top-level
// functions on purpose, because the same span loops as closures in a
// generic constructor, or over per-element func values as in each, run at
// a third of the speed (EXPERIMENTS.md).

func put32[T ~int32 | ~uint32](b []byte, x T) []byte { return le.AppendUint32(b, uint32(x)) }
func get32[T ~int32 | ~uint32](b []byte) T           { return T(le.Uint32(b)) }

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

func putF64(b []byte, x float64) []byte { return le.AppendUint64(b, math.Float64bits(x)) }
func getF64(b []byte) float64           { return math.Float64frombits(le.Uint64(b)) }

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

func putC128(b []byte, x complex128) []byte { return putF64(putF64(b, real(x)), imag(x)) }
func getC128(b []byte) complex128           { return complex(getF64(b), getF64(b[8:])) }

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

// each describes an element type that travels one value at a time, or
// hardly ever, or whose element is itself a short span: its spans loop
// over the per-element codecs.
func each[T any](w int, put func([]byte, T) []byte, get func([]byte) T) Elem[T] {
	return Elem[T]{w, put, get, func(buf []byte, xs []T) []byte {
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
func ints[T ~int8 | ~int16 | ~uint16 | ~int64 | ~int | ~uint64 | ~uintptr](w int) Elem[T] {
	return each(w, func(b []byte, x T) []byte { return le.AppendUint64(b, uint64(x))[:len(b)+w] }, func(b []byte) T {
		var word [8]byte
		copy(word[:], b[:w])
		return T(le.Uint64(word[:]))
	})
}

// Bit is a bool as a word: 1 for true, 0 for false.
func Bit(x bool) uint64 {
	if x {
		return 1
	}
	return 0
}

// The element types with more than one registration.
var (
	elI32 = Elem[int32]{4, put32[int32], get32[int32], puts32[int32], gets32[int32]}
	elI64 = ints[int64](8)
	elInt = ints[int](8)
	elU8  = Elem[uint8]{1, func(b []byte, x uint8) []byte { return append(b, x) }, func(b []byte) uint8 { return b[0] },
		func(b, xs []byte) []byte { return append(b, xs...) }, func(dst, src []byte) { copy(dst, src) }}
	elU32 = Elem[uint32]{4, put32[uint32], get32[uint32], puts32[uint32], gets32[uint32]}
	elF32 = each(4, func(b []byte, x float32) []byte { return le.AppendUint32(b, math.Float32bits(x)) }, func(b []byte) float32 { return math.Float32frombits(le.Uint32(b)) })
	elF64 = Elem[float64]{8, putF64, getF64, putsF64, getsF64}
	elC64 = each(8, func(b []byte, x complex64) []byte {
		return le.AppendUint32(le.AppendUint32(b, math.Float32bits(real(x))), math.Float32bits(imag(x)))
	}, func(b []byte) complex64 {
		return complex(math.Float32frombits(le.Uint32(b)), math.Float32frombits(le.Uint32(b[4:])))
	})
	elC128 = Elem[complex128]{16, putC128, getC128, putsC128, getsC128}
	// cfd's Cell, airshed's Conc, fdtd's Vec3: an element is a float64 span.
	elVec3 = each(24, func(b []byte, x [3]float64) []byte { return putsF64(b, x[:]) }, func(b []byte) (x [3]float64) { getsF64(x[:], b); return })
	elVec4 = each(32, func(b []byte, x [4]float64) []byte { return putsF64(b, x[:]) }, func(b []byte) (x [4]float64) { getsF64(x[:], b); return })
)

// The table: one line per built-in payload type (the basic scalars need
// no name: reg files them under their kind).
var (
	dNil     = reg(desc{put: func(buf []byte, _ any) []byte { return buf }, get: func(d decoder) (any, decoder) { return nil, d }}, nil)
	_        = reg(scalar(each(1, func(b []byte, x bool) []byte { return append(b, byte(Bit(x))) }, func(b []byte) bool { return b[0] != 0 })), true)
	_        = reg(scalar(ints[int8](1)), int8(-5))
	_        = reg(scalar(ints[int16](2)), int16(-300))
	_        = reg(scalar(elI32), int32(-70000))
	_        = reg(scalar(elI64), int64(-1<<40))
	_        = reg(scalar(elInt), int(-42))
	_        = reg(scalar(elU8), uint8(5))
	_        = reg(scalar(ints[uint16](2)), uint16(300))
	_        = reg(scalar(elU32), uint32(70000))
	_        = reg(scalar(ints[uint64](8)), uint64(1<<40))
	_        = reg(scalar(ints[uintptr](8)), uintptr(7))
	_        = reg(scalar(elF32), float32(1.5))
	_        = reg(scalar(elF64), math.NaN())
	_        = reg(scalar(elC64), complex64(complex(1, -2)))
	_        = reg(scalar(elC128), complex(3.5, math.Inf(-1)))
	dPair    = reg(scalar(each(16, func(b []byte, x [2]int64) []byte { return elI64.puts(b, x[:]) }, func(b []byte) (x [2]int64) { elI64.gets(x[:], b[:16]); return })), [2]int64{3, -4})
	dVec3    = reg(scalar(elVec3), [3]float64{1.5, 2.5, 3.5})
	dVec4    = reg(scalar(elVec4), [4]float64{1, 2, 3, 4})
	dString  = reg(desc{w: 1, put: func(buf []byte, v any) []byte { return appendString(buf, v.(string)) }, get: func(d decoder) (any, decoder) { s := d.string(); return s, d }}, "hello")
	dBytes   = reg(flat[[]byte](elU8), []byte{1, 2, 3})
	dI32s    = reg(flat[[]int32](elI32), []int32{-1, 0, 1 << 30})
	dU32s    = reg(flat[[]uint32](elU32), []uint32{0, 1, math.MaxUint32})
	dI64s    = reg(flat[[]int64](elI64), []int64{-1 << 60, 1 << 60})
	dInts    = reg(flat[[]int](elInt), []int{1, -2, 3})
	dF32s    = reg(flat[[]float32](elF32), []float32{1.25, -2.5})
	dF64s    = reg(flat[[]float64](elF64), []float64{0.1, 0.2, math.NaN()})
	dC64s    = reg(flat[[]complex64](elC64), []complex64{complex(1, 2)})
	dC128s   = reg(flat[[]complex128](elC128), []complex128{complex(0.5, -0.5), complex(math.NaN(), 0)})
	dVec3s   = reg(flat[[][3]float64](elVec3), [][3]float64{{1, 2, 3}, {4, 5, 6}})
	dVec4s   = reg(flat[[][4]float64](elVec4), [][4]float64{{1, 2, 3, 4}})
	dI32ss   = reg(rows[[][]int32](elI32), [][]int32{{-1, 2}, {}, nil})
	dF64ss   = reg(rows[[][]float64](elF64), [][]float64{{1, 2}, nil, {}})
	dC128ss  = reg(rows[[][]complex128](elC128), [][]complex128{{complex(1, 1)}, nil})
	dWrapped = reg(desc{w: 1}, Wrapped{K: 4, Head: [4]int64{1, -2, 3, 1 << 40}, Body: [3]float64{0.5, -1, math.NaN()}})
)

// Its codec reads describe, which reads dWrapped: set after the table.
func init() { dWrapped.put, dWrapped.get = putWrapped, getWrapped }

// Wrapped is the wire form of a generic application wrapper: K header
// words (at most four; Head past K does not travel) and one nested
// payload, of any kind but Wrapped, under its own kind. It prices as 8 per
// word plus the body, so one kind serves every instantiation of a wrapper
// (collective's reduction partials, meshspectral's grid blocks), and none
// needs one of its own.
type Wrapped struct {
	K    int
	Head [4]int64
	Body any
}

func putWrapped(buf []byte, v any) []byte {
	x := v.(Wrapped)
	buf = append(buf, byte(x.K))
	for _, w := range x.Head[:x.K] {
		buf = le.AppendUint64(buf, uint64(w))
	}
	b, _ := describe(x.Body, false)
	return b.put(append(buf, b.kind), x.Body)
}

func getWrapped(d decoder) (any, decoder) {
	var x Wrapped
	if k := d.take(1); k != nil {
		if x.K = int(k[0]); x.K > len(x.Head) {
			d.err = fmt.Errorf("spmd: wrapped payload claims %d header words", x.K)
			return nil, d
		}
	}
	if src := d.take(8 * x.K); src != nil {
		for i := range x.Head[:x.K] {
			x.Head[i] = int64(le.Uint64(src[8*i:]))
		}
	}
	x.Body = d.payload(true)
	return x, d
}

// describe maps a payload to its descriptor and counts its units. For a
// payload the table does not list d is nil, or if the caller asks for a
// price, a panic. Only BytesOf asks: the question rides on this call so
// that BytesOf is small enough to inline (a second call there makes every
// send half again as dear), and the built-in types are a type switch
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
	case Wrapped:
		if _, nested := x.Body.(Wrapped); !nested && uint(x.K) <= uint(len(x.Head)) {
			if b, m := describe(x.Body, price); b != nil {
				return dWrapped, 8*x.K + m*b.w
			}
		}
	}
	if d = apps[reflect.TypeOf(v)]; d != nil {
		return d, d.units(v)
	}
	if price {
		panic(fmt.Sprintf("spmd: payload type %T has no price: the payload table does not describe it", v))
	}
	return nil, 0
}

// BytesOf is the wire size of a payload for cost accounting: its unit
// count times the width its descriptor in the payload table gives.
// Nothing else has a price: an unpriced payload panics naming its type,
// which fails the run on every backend, rather than being metered at a
// guess.
func BytesOf(v any) int {
	d, n := describe(v, true)
	return n * d.w
}

// Samples returns a value of every payload type in the table, in kind
// order: the vocabulary a codec test round-trips.
func Samples() []any {
	out := make([]any, len(table))
	for i, d := range table {
		out[i] = d.sample
	}
	return out
}

func total[R ~[]S, S ~[]T, T any](x R) (n int) {
	for _, row := range x {
		n += len(row)
	}
	return n
}

// scalar is the descriptor of one T.
func scalar[T any](e Elem[T]) desc {
	return desc{w: e.w, units: func(any) int { return 1 },
		put: func(buf []byte, v any) []byte { return e.put(buf, v.(T)) },
		get: func(d decoder) (any, decoder) {
			var x T
			if src := d.take(e.w); src != nil {
				x = e.get(src)
			}
			return x, d
		}}
}

// putSpan appends a length-prefixed []T; getSpan undoes it. A length is
// believed only up to the elements the remaining bytes can hold, so a
// decoded slice never occupies more memory than its encoding did (for an
// element no wider in memory than on the wire).
func putSpan[T any](buf []byte, e *Elem[T], xs []T) []byte {
	return e.puts(slices.Grow(appendSliceLen(buf, len(xs), xs == nil), e.w*len(xs)), xs)
}

func getSpan[T any](d *decoder, e *Elem[T]) []T {
	n, isNil := d.sliceLen(e.w)
	if isNil {
		return nil
	}
	out := make([]T, n)
	e.gets(out, d.take(n*e.w))
	return out
}

// flat is the descriptor of S, a slice of T.
func flat[S ~[]T, T any](e Elem[T]) desc {
	return desc{w: e.w, units: func(v any) int { return len(v.(S)) },
		put: func(buf []byte, v any) []byte { return putSpan(buf, &e, v.(S)) },
		get: func(d decoder) (any, decoder) { xs := S(getSpan(&d, &e)); return xs, d }}
}

// rows is the descriptor of R, a slice of slices of T: priced as the sum
// of its rows, nil and empty kept apart per row as well as for the whole.
func rows[R ~[]S, S ~[]T, T any](e Elem[T]) desc {
	return desc{w: e.w, units: func(v any) int { return total(v.(R)) }, put: func(buf []byte, v any) []byte {
		x := v.(R)
		buf = appendSliceLen(buf, len(x), x == nil)
		for _, row := range x {
			buf = putSpan(buf, &e, row)
		}
		return buf
	}, get: func(d decoder) (any, decoder) {
		// A row costs at least its one-byte header on the wire.
		n, isNil := d.sliceLen(1)
		if isNil {
			return R(nil), d
		}
		out := make(R, n)
		for i := range out {
			out[i] = getSpan(&d, &e)
		}
		return out, d
	}}
}

// register files an application kind, priced w per unit.
func register(d desc, w int, sample any) {
	d.w = w
	apps[reflect.TypeOf(sample)] = reg(d, sample)
}

// Register files an application payload type T, and []T, in the payload
// table: e is T's wire form, and price what one T costs the meters. Call
// it from a package initializer next to the type (kinds are numbered in
// registration order, and only initialization runs in the same order in
// every process of a binary), and make T's wire width at least its size
// in memory, so that a forged []T length cannot claim more memory than
// its bytes.
func Register[T any](price int, e Elem[T], sample T) {
	register(scalar(e), price, sample)
	register(flat[[]T](e), price, []T{sample})
}

// RegisterSlice files S, a slice of e's elements, and []S, every element
// priced at price, as Register's []T and [][]T would be.
func RegisterSlice[S ~[]E, E any](price int, e Elem[E], sample S) {
	register(flat[S](e), price, sample)
	register(rows[[]S](e), price, []S{sample})
}

// Words describes an element type that travels as n little-endian 64-bit
// words (n at most 8): put gives a value's words, get rebuilds the value.
// The words go by value, so coding an element allocates nothing.
func Words[T any](n int, put func(T) [8]uint64, get func([8]uint64) T) Elem[T] {
	return each(8*n, func(b []byte, x T) []byte {
		w := put(x)
		for _, v := range w[:n] {
			b = le.AppendUint64(b, v)
		}
		return b
	}, func(b []byte) T {
		var w [8]uint64
		for i := range w[:n] {
			w[i] = le.Uint64(b[8*i:])
		}
		return get(w)
	})
}
