package dist

// MaxParked exposes the pool's bound to the external tests.
var MaxParked = maxParked
