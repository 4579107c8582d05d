package spmd

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// This file is the wire codec: transports whose ranks do not share an
// address space (backend/dist, elastic) serialize payloads with
// AppendPayload and rebuild them with DecodePayload. It covers exactly
// the vocabulary BytesOf prices, because both read the same descriptor: a
// type in the payload table (payload.go) is encoded by its registration,
// and Sized application types (structs of exported scalar/slice fields,
// including generic wrappers like collective's partial[T]) go through the
// reflection fallback below. Metering is untouched by encoding: the priced
// byte count travels beside the payload in the transport's frame header.
//
// Table types are self-describing (one kind byte, then fixed-width
// little-endian data). Fallback types carry the first kind past the table
// and an identifier from a process-local type registry, so only the
// process that encoded one can decode it. That is the dist backend's shape
// (the coordinator encodes on Send and decodes on Recv, workers forward
// opaque bytes), and it lets the codec carry unexported generic types no
// cross-process registry could name.

// appendSliceLen encodes a slice length with the nil distinction: 0 means
// nil, k+1 means a (possibly empty) slice of length k. DeepEqual-grade
// parity across backends needs nil and empty to survive the round trip.
func appendSliceLen(buf []byte, n int, isNil bool) []byte {
	if isNil {
		return append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(n)+1)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendPayload appends the wire encoding of payload v to buf and returns
// the extended buffer. It errors on a type that is not in the table and
// that the reflection fallback cannot faithfully rebuild (pointers, maps,
// channels, funcs, interfaces, structs with unexported fields).
func AppendPayload(buf []byte, v any) ([]byte, error) {
	if d, _ := describe(v, false); d != nil {
		return d.put(append(buf, d.kind), v), nil
	}
	rv := reflect.ValueOf(v)
	if err := checkWireable(rv.Type()); err != nil {
		return nil, fmt.Errorf("spmd: unencodable payload %T: %w", v, err)
	}
	buf = binary.AppendUvarint(append(buf, byte(len(table))), wireTypeID(rv.Type()))
	return appendReflectValue(buf, rv), nil
}

// wireIDs and wireTypes are the process-local registry backing the
// reflection fallback: encode interns the payload's reflect.Type and ships
// the identifier; decode resolves it back. A type is stored under its
// identifier before the identifier is published, so a decoder is never
// handed one it cannot resolve; losing the race to publish strands an
// identifier, which costs nothing.
var (
	wireIDs   sync.Map // reflect.Type -> uint64
	wireTypes sync.Map // uint64 -> reflect.Type
	wireNext  atomic.Uint64
)

func wireTypeID(t reflect.Type) uint64 {
	id, ok := wireIDs.Load(t)
	if !ok {
		fresh := wireNext.Add(1) - 1
		wireTypes.Store(fresh, t)
		id, _ = wireIDs.LoadOrStore(t, fresh)
	}
	return id.(uint64)
}

// checkWireable validates a fallback payload type up front so encoding
// never half-writes: every reachable field must be an exported
// scalar/string/slice/array/struct.
func checkWireable(t reflect.Type) error {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128, k == reflect.String:
		return nil
	case k == reflect.Slice, k == reflect.Array:
		return checkWireable(t.Elem())
	case k != reflect.Struct:
		return fmt.Errorf("kind %s is not wireable", k)
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return fmt.Errorf("struct %s has unexported field %s", t, f.Name)
		}
		if err := checkWireable(f.Type); err != nil {
			return err
		}
	}
	return nil
}

// appendReflectValue walks a fallback value; every leaf is a 64-bit word
// (a complex two).
func appendReflectValue(buf []byte, rv reflect.Value) []byte {
	switch rv.Kind() {
	case reflect.Bool:
		return le.AppendUint64(buf, uint64(bit(rv.Bool())))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return le.AppendUint64(buf, uint64(rv.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return le.AppendUint64(buf, rv.Uint())
	case reflect.Float32, reflect.Float64:
		return le.AppendUint64(buf, math.Float64bits(rv.Float()))
	case reflect.Complex64, reflect.Complex128:
		return putsC128(buf, []complex128{rv.Complex()})
	case reflect.String:
		return appendString(buf, rv.String())
	case reflect.Slice:
		buf = appendSliceLen(buf, rv.Len(), rv.IsNil())
		fallthrough
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			buf = appendReflectValue(buf, rv.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			buf = appendReflectValue(buf, rv.Field(i))
		}
	default:
		// checkWireable rejected these before any byte was written.
		panic(fmt.Sprintf("spmd: unreachable wire kind %s", rv.Kind()))
	}
	return buf
}

// decoder walks an encoded payload; its methods record the first error in
// err, checked once at the end, so that a truncated or corrupt frame
// surfaces as an error, not a panic.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("spmd: truncated payload at offset %d", d.off)
	}
}

func (d *decoder) take(n int) []byte {
	// n > len-off (not off+n > len) so a huge length cannot overflow into
	// a passing check; n < 0 rejects one that overflowed an int conversion.
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u64() uint64 {
	if s := d.take(8); s != nil {
		return le.Uint64(s)
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string { return string(d.take(int(d.uvarint()))) }

// sliceLen undoes appendSliceLen for a slice whose elements take at
// least w bytes each on the wire: (length, isNil). A forged length must
// not pre-allocate an absurd slice or overflow the int conversion, so it
// is believed only up to the elements the remaining bytes can hold,
// compared in uint64 space; on success length*w bytes are there to take.
func (d *decoder) sliceLen(w int) (int, bool) {
	v := d.uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.b)-d.off)/uint64(w) {
		d.fail()
		return 0, true
	}
	return int(v - 1), false
}

// DecodePayload decodes one payload produced by AppendPayload from the
// front of b, returning the value and the number of bytes consumed. A
// payload that used the reflection fallback decodes only in the process
// that encoded it (see the file comment).
func DecodePayload(b []byte) (any, int, error) {
	d := decoder{b: b}
	var v any
	switch kind := d.take(1); {
	case kind == nil:
	case int(kind[0]) < len(table):
		v, d = table[kind[0]].get(d)
	case int(kind[0]) > len(table):
		d.err = fmt.Errorf("spmd: unknown wire kind %d", kind[0])
	default:
		id := d.uvarint()
		if t, ok := wireTypes.Load(id); ok {
			rv := reflect.New(t.(reflect.Type)).Elem()
			d.reflectValue(rv)
			v = rv.Interface()
		} else if d.err == nil {
			d.err = fmt.Errorf("spmd: unknown wire type id %d (fallback payloads decode only in the encoding process)", id)
		}
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return v, d.off, nil
}

// reflectValue undoes appendReflectValue into rv.
func (d *decoder) reflectValue(rv reflect.Value) {
	switch rv.Kind() {
	case reflect.Bool:
		rv.SetBool(d.u64() != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		rv.SetInt(int64(d.u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		rv.SetUint(d.u64())
	case reflect.Float32, reflect.Float64:
		rv.SetFloat(math.Float64frombits(d.u64()))
	case reflect.Complex64, reflect.Complex128:
		re := math.Float64frombits(d.u64())
		rv.SetComplex(complex(re, math.Float64frombits(d.u64())))
	case reflect.String:
		rv.SetString(d.string())
	case reflect.Slice:
		n, isNil := d.sliceLen(1)
		if isNil {
			return
		}
		rv.Set(reflect.MakeSlice(rv.Type(), n, n))
		fallthrough
	case reflect.Array:
		for i := 0; i < rv.Len() && d.err == nil; i++ {
			d.reflectValue(rv.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			d.reflectValue(rv.Field(i))
		}
	default:
		d.err = fmt.Errorf("spmd: undecodable wire kind %s", rv.Kind())
	}
}
