package stream

// The sink's packing threshold and run capacity, for the sink-contract
// test.
const (
	PackBelow = packBelow
	RunCap    = runCap
)
