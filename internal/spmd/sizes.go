package spmd

// Sized is implemented by application payload types that know their own
// wire size for cost accounting. Implement VBytes with a value receiver:
// payloads travel by value, so a pointer-receiver VBytes would be
// invisible to BytesOf (the boxed value would not implement Sized and
// would silently price at one word).
type Sized interface {
	VBytes() int
}

// BytesOf is the wire size of a payload for cost accounting: its element
// count times the width its descriptor in the payload table gives
// (payload.go), else its own VBytes if it is Sized.
//
// Unknown types are priced at one word. That default is silent and
// under-counts anything bigger than a scalar, so it is a trap for new
// payload types: payload_sizes_test.go (repository root) lists what the
// registered apps put on the wire.
func BytesOf(v any) int {
	d, n := describe(v, true)
	if d != nil {
		n *= d.w
	}
	return n
}

// unlisted prices a payload the table does not list.
func unlisted(v any) int {
	if s, ok := v.(Sized); ok {
		return s.VBytes()
	}
	return 8
}

// SizeKnown reports whether BytesOf prices v explicitly rather than
// through the silent one-word default.
func SizeKnown(v any) bool {
	d, _ := describe(v, false)
	_, sized := v.(Sized)
	return d != nil || sized
}
