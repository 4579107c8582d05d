package spmd

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wirePayloads is the round-trip corpus and the fuzzer's seed corpus. It
// is read off the payload table — every registration's sample, and for a
// slice type its nil and its empty value beside it — so a type cannot be
// registered without being round-tripped and fuzz-seeded. Beside the
// table: a few more values of table types, among them Wrapped around
// every shape of body.
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
		Wrapped{K: 1, Head: [4]int64{3}, Body: math.Pi},
		Wrapped{K: 4, Head: [4]int64{0, 2, -1, 3}, Body: []complex128(nil)},
		Wrapped{K: 2, Head: [4]int64{1, 5}, Body: [][3]float64{}},
		Wrapped{Body: nil},
		Wrapped{K: 1, Head: [4]int64{-7}, Body: [][]float64{{1}, nil, {}}},
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
	case reflect.Interface: // a Wrapped's body
		x, y := a.Elem(), b.Elem()
		return !x.IsValid() && !y.IsValid() || x.IsValid() && y.IsValid() && x.Type() == y.Type() && sameBits(x, y)
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
		struct{ A int }{1},
		Wrapped{K: 5, Body: 1.5},
		Wrapped{K: -1, Body: 1.5},
		Wrapped{Body: Wrapped{}},
		Wrapped{Body: struct{ A int }{1}},
	} {
		if _, err := AppendPayload(nil, v); err == nil {
			t.Errorf("AppendPayload(%T): want error, got nil", v)
		}
	}
}

// forgedLengths is one input per length-prefixed kind (every table type
// whose sample is a slice or a string) claiming a huge length, plus two
// kind bytes past the table, one of them followed by a huge length, and a
// Wrapped claiming five header words or nesting another.
func forgedLengths() [][]byte {
	huge := binary.AppendUvarint(nil, 1<<62)
	out := [][]byte{append([]byte{byte(len(table))}, huge...), {byte(len(table)) + 1},
		{dWrapped.kind, 5}, {dWrapped.kind, 0, dWrapped.kind, 0, dNil.kind}}
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

// TestWrappedPrice pins the header-plus-nested kind's price, 8 per header
// word plus the body's, and that a body with no price is named as such.
func TestWrappedPrice(t *testing.T) {
	for _, tc := range []struct {
		in   Wrapped
		want int
	}{
		{Wrapped{K: 1, Body: 1.5}, 16},
		{Wrapped{K: 1, Body: [2]int64{1, 2}}, 24},
		{Wrapped{K: 4, Body: []complex128{1, 2}}, 64},
		{Wrapped{K: 2, Body: [][3]float64{{1, 2, 3}}}, 40},
		{Wrapped{Body: nil}, 0},
	} {
		if got := BytesOf(tc.in); got != tc.want {
			t.Errorf("BytesOf(%+v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "payload type struct { X int } has no price") {
			t.Errorf("pricing a Wrapped of an unpriced body panicked with %q", msg)
		}
	}()
	BytesOf(Wrapped{K: 1, Body: struct{ X int }{1}})
}

// wrappedForms are the two shapes a reduction partial of a scalar takes
// on the wire: collective sends a float64 value as a second header word
// (allreduce), any other scalar as the body (body, here a float64 too).
var wrappedForms = []struct {
	name string
	v    any
}{
	{"allreduce", Wrapped{K: 2, Head: [4]int64{1, int64(math.Float64bits(math.Pi))}}},
	{"body", Wrapped{K: 1, Head: [4]int64{1}, Body: math.Pi}},
}

// TestWrappedCodecAllocs: pricing, encoding and decoding either form
// costs at most two allocations, the boxes of the decoded Wrapped and of
// its decoded body; pricing alone costs none.
func TestWrappedCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, f := range wrappedForms {
		if n := testing.AllocsPerRun(1000, func() { BytesOf(f.v) }); n != 0 {
			t.Errorf("%s: BytesOf allocated %v times, want 0", f.name, n)
		}
		if n := testing.AllocsPerRun(1000, func() { codecRoundTrip(f.v, buf) }); n > 2 {
			t.Errorf("%s: price + encode + decode allocated %v times, want at most 2", f.name, n)
		}
	}
}

func codecRoundTrip(v any, buf []byte) {
	_ = BytesOf(v)
	buf, _ = AppendPayload(buf[:0], v)
	codecSink, _, _ = DecodePayload(buf)
}

// BenchmarkCodecWrapped is price + encode + decode of a reduction
// partial's wire forms: the per-message codec cost of an AllReduce step.
func BenchmarkCodecWrapped(b *testing.B) {
	buf := make([]byte, 0, 64)
	for _, f := range wrappedForms {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				codecRoundTrip(f.v, buf)
			}
		})
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
