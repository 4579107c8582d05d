package spmd

// SendT is the typed send over any communicator: the static counterpart
// of Recv. The payload's wire size is metered automatically, like every
// send. Using SendT (or a Chan) on both ends of a protocol makes a
// payload-type mismatch a compile error instead of a runtime panic in
// Recv.
func SendT[T any](c Comm, dst, tag int, v T) { c.Send(dst, tag, v) }

// Chan is a typed, tagged point-to-point link between this process and
// one peer rank of a communicator: the pair (peer, tag) with the payload
// type fixed at construction. Protocols that repeatedly exchange one
// payload type with one partner (halo exchanges, pipeline stages)
// construct their Chans once and can no longer send the wrong type or
// mistype a tag at an individual call site.
type Chan[T any] struct {
	c    Comm
	peer int
	tag  int
}

// NewChan binds a typed channel to the peer rank and tag within c. Both
// endpoints must construct the channel with the same tag and each other's
// rank — the usual SPMD contract.
func NewChan[T any](c Comm, peer, tag int) Chan[T] {
	return Chan[T]{c: c, peer: peer, tag: tag}
}

// Send transmits v to the channel's peer.
func (ch Chan[T]) Send(v T) { ch.c.Send(ch.peer, ch.tag, v) }

// Recv receives the next value from the channel's peer.
func (ch Chan[T]) Recv() T { return Recv[T](ch.c, ch.peer, ch.tag) }
