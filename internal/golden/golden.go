// Package golden digests floating-point output, for tests that pin it to
// the bits an earlier version of the code produced.
package golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest is a SHA-256, in hex, over the Float64bits of every value's real
// then imaginary part, little-endian, across the slices in order: a
// stream cut into batches digests as the stream itself.
func Digest(parts ...[]complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, a := range parts {
		for _, v := range a {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
