package spmd

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// sizedVec mimics the apps' Sized wrapper payloads (collective's
// partial[T], meshspectral's subBlock[T]): a generic struct of exported
// header fields plus an inner payload, priced via BytesOf.
type sizedVec[T any] struct {
	MinRank int
	Data    []T
}

func (s sizedVec[T]) VBytes() int { return 8 + BytesOf(s.Data) }

type unexportedField struct {
	A int
	b int //nolint:unused // exists to be rejected by the codec
}

func (unexportedField) VBytes() int { return 16 }

// sizedRows is a Sized slice of structs: a fallback payload whose slice
// the table does not know, so it is walked element by element.
type sizedRows []struct {
	X   float64
	Tag string
}

func (s sizedRows) VBytes() int { return 16 * len(s) }

// wirePayloads is the round-trip corpus and the fuzzer's seed corpus. It
// is read off the payload table — every registration's sample, and for a
// slice type its nil and its empty value beside it — so a type cannot be
// registered without being round-tripped and fuzz-seeded. Beside the
// table: a few more values of table types, and reflect-fallback structs.
func wirePayloads() []any {
	var out []any
	for _, d := range table {
		out = append(out, d.sample)
		if t := reflect.TypeOf(d.sample); t != nil && t.Kind() == reflect.Slice {
			out = append(out, reflect.Zero(t).Interface(), reflect.MakeSlice(t, 0, 0).Interface())
		}
	}
	return append(out,
		false, "", float64(math.Pi), math.Inf(-1), int(42),
		sizedVec[float64]{MinRank: 3, Data: []float64{1.5, -2.5}},
		sizedVec[int32]{MinRank: 1, Data: nil},
		sizedVec[string]{MinRank: 2, Data: []string{"a", ""}},
		sizedRows{{1, "a"}, {math.NaN(), ""}},
	)
}

// TestPayloadTable pins the table's own consistency: a descriptor's kind
// is its position, and describe dispatches each registration's sample to
// that registration — a type added to the table but not to describe (or
// dispatched to the wrong line) fails here.
func TestPayloadTable(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for i, d := range table {
		if int(d.kind) != i {
			t.Errorf("table[%d] has kind %d", i, d.kind)
		}
		if got, _ := describe(d.sample, false); got != d {
			t.Errorf("describe(%T) does not dispatch to its registration (kind %d)", d.sample, i)
		}
		if typ := reflect.TypeOf(d.sample); seen[typ] {
			t.Errorf("%v is registered twice", typ)
		} else {
			seen[typ] = true
		}
	}
}

// TestWireRoundTrip pins the codec contract the dist backend relies on:
// every payload type BytesOf prices survives AppendPayload/DecodePayload
// with bit identity (including the nil/empty slice distinction and NaN
// payloads) and unchanged BytesOf pricing.
func TestWireRoundTrip(t *testing.T) {
	for _, v := range wirePayloads() {
		buf, err := AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("AppendPayload(%T %v): %v", v, v, err)
		}
		got, n, err := DecodePayload(buf)
		if err != nil {
			t.Fatalf("DecodePayload(%T %v): %v", v, v, err)
		}
		if n != len(buf) {
			t.Errorf("DecodePayload(%T): consumed %d of %d bytes", v, n, len(buf))
		}
		if reflect.TypeOf(got) != reflect.TypeOf(v) || !sameBits(reflect.ValueOf(got), reflect.ValueOf(v)) {
			t.Errorf("round trip of %T: got %#v, want %#v", v, got, v)
		}
		if BytesOf(got) != BytesOf(v) {
			t.Errorf("round trip of %T changed pricing: %d != %d", v, BytesOf(got), BytesOf(v))
		}
	}
}

// sameBits is reflect.DeepEqual except that floats compare by bit
// pattern (the codec must preserve NaNs; DeepEqual would reject them).
func sameBits(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	switch a.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// TestWireRejectsUnencodable pins the failure mode: payloads the codec
// cannot rebuild faithfully error instead of half-encoding.
func TestWireRejectsUnencodable(t *testing.T) {
	for _, v := range []any{
		map[string]int{"a": 1},
		make(chan int),
		func() {},
		&struct{ A int }{1},
		unexportedField{A: 1},
	} {
		if _, err := AppendPayload(nil, v); err == nil {
			t.Errorf("AppendPayload(%T): want error, got nil", v)
		}
	}
}

// forgedLengths is one input per length-prefixed kind (every table type
// whose sample is a slice or a string, and the fallback's type
// identifier) claiming a huge length, plus a kind byte past the table.
func forgedLengths() [][]byte {
	huge := binary.AppendUvarint(nil, 1<<62)
	out := [][]byte{append([]byte{byte(len(table))}, huge...), {byte(len(table)) + 1}}
	for _, d := range table {
		switch reflect.ValueOf(d.sample).Kind() {
		case reflect.Slice, reflect.String:
			out = append(out, append([]byte{d.kind}, huge...))
		}
	}
	return out
}

// TestWireTruncated pins that corrupt frames surface as errors, not
// panics or giant allocations.
func TestWireTruncated(t *testing.T) {
	for _, v := range wirePayloads() {
		buf, err := AppendPayload(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := DecodePayload(buf[:cut]); err == nil {
				t.Errorf("DecodePayload of %d/%d bytes of %T: want error", cut, len(buf), v)
			}
		}
	}
	// Forged huge lengths must fail cleanly, not overflow the int
	// conversion into a panic or a giant allocation (the dist
	// coordinator decodes frames that crossed the network).
	for _, in := range forgedLengths() {
		if _, _, err := DecodePayload(in); err == nil {
			t.Errorf("forged input %x: want error", in)
		}
	}
}

// TestWireSizedTypesDecodeInProcess documents the fallback's scope: the
// decoder resolves type identifiers from the process-local registry, so
// a value encoded here decodes here (the dist coordinator's shape).
func TestWireSizedTypesDecodeInProcess(t *testing.T) {
	v := sizedVec[complex128]{MinRank: 2, Data: []complex128{complex(1, -1)}}
	buf, err := AppendPayload(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %#v, want %#v", got, v)
	}
	if got.(sizedVec[complex128]).Data[0] != complex(1, -1) {
		t.Error("typed access after decode failed")
	}
}

// The two payload shapes the remote workload sends — one float64
// (poisson's halo corner) and a mebibyte of int32 (mergesort's blocks):
// the `go test -bench` form of bench's spmd.encode_* / spmd.decode_* /
// spmd.codec_allocs_small layer metrics.
func BenchmarkCodecSmall(b *testing.B) { benchCodec(b, []float64{1}, 8) }
func BenchmarkCodecBulk(b *testing.B)  { benchCodec(b, make([]int32, 1<<18), 1<<20) }

var codecSink any

func benchCodec(b *testing.B, v any, bytes int64) {
	buf, err := AppendPayload(nil, v)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			buf, _ = AppendPayload(buf[:0], v)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			codecSink, _, _ = DecodePayload(buf)
		}
	})
}
