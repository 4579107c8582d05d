package spmd

import (
	"encoding/binary"
	"fmt"
)

// This file is the wire codec: a transport whose ranks do not share an
// address space (backend/dist) serializes payloads with AppendPayload and
// rebuilds them with DecodePayload. It covers exactly the vocabulary
// BytesOf prices, because both read the same descriptor in the payload
// table (payload.go): one kind byte, then fixed-width little-endian data.
// Kinds are fixed at initialization, so a payload encoded in one process
// of a binary decodes in any other. Metering is untouched by encoding: the
// priced byte count travels beside the payload in the transport's frame
// header.

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
// the extended buffer. It errors on a type the payload table does not
// describe.
func AppendPayload(buf []byte, v any) ([]byte, error) {
	d, _ := describe(v, false)
	if d == nil {
		return nil, fmt.Errorf("spmd: unencodable payload %T: the payload table does not describe it", v)
	}
	return d.put(append(buf, d.kind), v), nil
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

// string undoes appendString. The length is compared with the remaining
// bytes in uint64 space, as in sliceLen: on a 32-bit host a forged 2^62
// would convert to a passing int.
func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	return string(d.take(int(n)))
}

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

// payload decodes one kind byte and the body it announces. A Wrapped's
// body (nested) may not be a Wrapped itself: a nest of them would recurse
// as deep as the input is long.
func (d *decoder) payload(nested bool) (v any) {
	k := d.take(1)
	switch {
	case k == nil:
	case int(k[0]) >= len(table):
		d.err = fmt.Errorf("spmd: unknown wire kind %d", k[0])
	case nested && k[0] == dWrapped.kind:
		d.err = fmt.Errorf("spmd: wrapped payload nested in another")
	default:
		v, *d = table[k[0]].get(*d)
	}
	return v
}

// DecodePayload decodes one payload produced by AppendPayload from the
// front of b, returning the value and the number of bytes consumed.
func DecodePayload(b []byte) (any, int, error) {
	d := decoder{b: b}
	v := d.payload(false)
	if d.err != nil {
		return nil, 0, d.err
	}
	return v, d.off, nil
}
