package spmd

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzDecodePayload feeds DecodePayload — which the dist and elastic
// coordinators run on bytes that crossed a socket — arbitrary input. It
// must never panic, and never allocate more than a small multiple of the
// input: a slice length is only believed up to the bytes that remain, so
// the worst case is the widest element (a [4]float64, 32 bytes) claimed
// once per remaining byte. Whatever it does accept must be a fixed point
// of the codec: re-encoding the decoded value and decoding that again
// reproduces the same bytes, which is DeepEqual identity in a form that
// survives NaNs and keeps nil apart from empty (they encode differently).
//
// The seeds are the round-trip table's encodings (every table type, and
// the reflect fallback), their truncations, and the forged lengths of
// TestWireTruncated; `go test` runs them all.
func FuzzDecodePayload(f *testing.F) {
	for _, v := range wirePayloads() {
		buf, err := AppendPayload(nil, v)
		if err != nil {
			f.Fatalf("AppendPayload(%T): %v", v, err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, kind := range []byte{wString, wBytes, wFloat64s, wVec4s, wFloat64ss, wReflect, 255} {
		f.Add(append([]byte{kind}, huge...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, n, err := DecodePayload(in)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(40*len(in)+64<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(in), grew, limit)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(in) {
			t.Fatalf("consumed %d of %d bytes", n, len(in))
		}
		BytesOf(v) // pricing a decoded value must not panic either
		enc, err := AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		v2, n2, err := DecodePayload(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded %T: consumed %d of %d, %v", v, n2, len(enc), err)
		}
		enc2, err := AppendPayload(nil, v2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("%T is not a fixed point of the codec:\n%x\n%x (%v)", v, enc, enc2, err)
		}
	})
}
