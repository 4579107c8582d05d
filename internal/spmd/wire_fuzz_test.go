package spmd

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodePayload feeds DecodePayload — which the dist coordinator runs
// on bytes that crossed a socket — arbitrary input. It must never panic,
// and never allocate more than the payload table guarantees: a slice
// length is believed only up to the elements the remaining bytes can hold,
// so a fixed-width kind ([]T, [][4]float64, a string) decodes into no more
// memory than its input occupied (1x), and the worst case left in the
// table is [][]T, where a row that costs one byte on the wire (an empty
// row's header) costs a 24-byte slice header in memory (24x). That holds a
// kind whose body can be a [][]T, a Wrapped, to 24x too. Whatever it does
// accept must be a fixed point of the codec: re-encoding the decoded value
// and decoding that again reproduces the same bytes, which is DeepEqual
// identity in a form that survives NaNs and keeps nil apart from empty
// (they encode differently).
//
// The seeds are read off the payload table: the round-trip corpus's
// encodings (every registration, nil and empty of every slice type,
// Wrapped around every shape of body) and their truncations, a forged huge
// length for every length-prefixed kind, and for every slice kind a count
// that its input's bytes — but not that many elements — could back;
// `go test` runs them all.
func FuzzDecodePayload(f *testing.F) {
	for _, v := range wirePayloads() {
		buf, err := AppendPayload(nil, v)
		if err != nil {
			f.Fatalf("AppendPayload(%T): %v", v, err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	for _, in := range forgedLengths() {
		f.Add(in)
	}
	const body = 1 << 16
	for _, d := range table {
		if reflect.ValueOf(d.sample).Kind() == reflect.Slice {
			in := binary.AppendUvarint([]byte{d.kind}, body+1)
			f.Add(append(in, make([]byte, body)...))
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		per := 1
		if len(in) > 0 && int(in[0]) < len(table) && holdsRows(table[in[0]].sample) {
			per = 24
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, n, err := DecodePayload(in)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(per*len(in)+64<<10); grew > limit {
			t.Fatalf("decoding %d bytes (kind %x) allocated %d (limit %d)", len(in), in[:min(len(in), 1)], grew, limit)
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

// holdsRows reports the sample of a kind whose body can hold a [][]T: a
// [][]T, or a Wrapped, whose body can be one.
func holdsRows(sample any) bool {
	if _, ok := sample.(Wrapped); ok {
		return true
	}
	t := reflect.TypeOf(sample)
	return t != nil && t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Slice
}
