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

// wirePayloads is one value of every payload type the codec's tables
// encode explicitly, plus reflect-fallback structs: the round-trip
// table, and the fuzzer's seed corpus.
func wirePayloads() []any {
	return []any{
		nil,
		true, false,
		int8(-5), int16(-300), int32(-70000), int64(-1 << 40), int(42),
		uint8(5), uint16(300), uint32(70000), uint64(1 << 40), uintptr(7),
		float32(1.5), float64(math.Pi), math.NaN(), math.Inf(-1),
		complex64(complex(1, -2)), complex(3.5, -4.5),
		"", "hello",
		[]byte(nil), []byte{}, []byte{1, 2, 3},
		[]int32(nil), []int32{}, []int32{-1, 0, 1 << 30},
		[]uint32{0, 1, math.MaxUint32},
		[]int64{-1 << 60, 1 << 60}, []int{1, 2, 3},
		[]float32{1.25, -2.5}, []float64(nil), []float64{0.1, 0.2, math.NaN()},
		[]complex64{complex(1, 2)}, []complex128(nil), []complex128{complex(0.5, -0.5)},
		[][]float64(nil), [][]float64{{1, 2}, nil, {}},
		[][]complex128{{complex(1, 1)}, nil},
		[][3]float64{{1, 2, 3}, {4, 5, 6}},
		[][4]float64{{1, 2, 3, 4}},
		[2]int64{3, -4},
		[3]float64{1.5, 2.5, 3.5},
		[4]float64{1, 2, 3, 4},
		sizedVec[float64]{MinRank: 3, Data: []float64{1.5, -2.5}},
		sizedVec[int32]{MinRank: 1, Data: nil},
	}
}

// TestWireRoundTrip pins the codec contract the dist backend relies on:
// every payload type BytesOf prices explicitly survives
// AppendPayload/DecodePayload with reflect.DeepEqual identity (including
// the nil/empty slice distinction) and unchanged BytesOf pricing.
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
		if !deepEqualNaN(got, v) {
			t.Errorf("round trip of %T: got %#v, want %#v", v, got, v)
		}
		if BytesOf(got) != BytesOf(v) {
			t.Errorf("round trip of %T changed pricing: %d != %d", v, BytesOf(got), BytesOf(v))
		}
	}
}

// deepEqualNaN is reflect.DeepEqual except NaN floats compare equal by
// bit pattern (the codec must preserve them; DeepEqual would reject).
func deepEqualNaN(a, b any) bool {
	if f, ok := a.(float64); ok {
		g, ok2 := b.(float64)
		return ok2 && math.Float64bits(f) == math.Float64bits(g)
	}
	if fs, ok := a.([]float64); ok {
		gs, ok2 := b.([]float64)
		if !ok2 || len(fs) != len(gs) || (fs == nil) != (gs == nil) {
			return false
		}
		for i := range fs {
			if math.Float64bits(fs[i]) != math.Float64bits(gs[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
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

// TestWireTruncated pins that corrupt frames surface as errors, not
// panics or giant allocations.
func TestWireTruncated(t *testing.T) {
	buf, err := AppendPayload(nil, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodePayload(buf[:cut]); err == nil {
			t.Errorf("DecodePayload of %d/%d bytes: want error", cut, len(buf))
		}
	}
	if _, _, err := DecodePayload([]byte{255}); err == nil {
		t.Error("unknown kind byte: want error")
	}
	// Forged huge lengths must fail cleanly, not overflow the int
	// conversion into a panic or a giant allocation (the dist
	// coordinator decodes frames that crossed the network).
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, kind := range []byte{wString, wBytes, wFloat64s, wReflect} {
		if _, _, err := DecodePayload(append([]byte{kind}, huge...)); err == nil {
			t.Errorf("kind %d with huge length: want error", kind)
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
