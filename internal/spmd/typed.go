package spmd

// SendT is the typed send over any communicator: the static counterpart
// of Recv. The payload's wire size is metered automatically, like every
// send. Using SendT on both ends of a protocol makes a payload-type
// mismatch a compile error instead of a runtime panic in Recv.
func SendT[T any](c Comm, dst, tag int, v T) { c.Send(dst, tag, v) }
