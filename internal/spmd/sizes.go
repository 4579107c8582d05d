package spmd

import "reflect"

// Sized is implemented by application payload types that know their own
// wire size for cost accounting. Implement VBytes with a value receiver:
// payloads travel by value, so a pointer-receiver VBytes would be
// invisible to BytesOf and the send would fail as unpriced.
type Sized interface {
	VBytes() int
}

// BytesOf is the wire size of a payload for cost accounting: its element
// count times the width its descriptor in the payload table gives
// (payload.go); for a type the table does not list, its own VBytes if it
// is Sized, else — a slice — the sum of its elements. Nothing else has a
// price: an unpriced payload panics naming its type, which fails the run
// on every backend, rather than being metered at a guess.
func BytesOf(v any) int {
	d, n := describe(v, true)
	if d != nil {
		n *= d.w
	}
	return n
}

// price is BytesOf with -1, not a panic, for a payload that has none.
func price(v any) int {
	d, n := describe(v, false)
	if d == nil {
		return unlisted(v)
	}
	return n * d.w
}

// SizeKnown reports whether BytesOf prices v.
func SizeKnown(v any) bool { return price(v) >= 0 }

// unlisted prices a payload the table does not list, -1 if it has no
// price. A slice costs reflection and an allocation per element: one that
// travels in bulk belongs in the table or behind a Sized type.
func unlisted(v any) (n int) {
	if s, ok := v.(Sized); ok {
		return s.VBytes()
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice {
		return -1
	}
	for i := 0; i < rv.Len(); i++ {
		m := price(rv.Index(i).Interface())
		if m < 0 {
			return -1
		}
		n += m
	}
	return n
}
