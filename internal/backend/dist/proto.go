package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The wire protocol: every connection carries length-prefixed frames
//
//	[u32 big-endian length] [u8 op] [body...]
//
// where length counts the op byte plus the body. One kind of connection
// speaks it, control (coordinator ↔ worker): the handshake
// (hello/assign/ready), then two one-way streams riding the same
// connection — the coordinator's opSend stream down (fire and forget),
// and the worker's eager opDeliver stream up (every message that reaches
// the worker's rank is pushed to the coordinator immediately, no request
// needed; the coordinator banks deliveries in a per-rank inbox so Recv
// and RecvAny are local pops). The liveness pair rides the same streams:
// an opPing down, answered by an opPong up, which the rank's own reader
// consumes. The opFinish/opBye finish barrier ends the world, after which
// the same connection can host the next world's handshake — worker
// processes and their control connections are reusable (see the
// coordinator's worker pool).
//
// There is one route: the coordinator writes an opSend down the
// *destination* rank's control connection, and that worker pushes the
// body back up verbatim as an opDeliver — one worker visit, two socket
// crossings end to end.
//
// Any frame may be an opBatch container: back-to-back frames toward one
// destination, coalesced by the sender into a single multi-message frame
// (and a single TCP segment). Readers expand batches with forEachFrame;
// batches never nest.
//
// Message payloads inside opSend/opDeliver are spmd wire-codec bytes;
// workers echo them opaquely and only the coordinator encodes and
// decodes.
const (
	opHello byte = 1 + iota
	opAssign
	opReady
	opSend
	opDeliver
	opFinish
	opBye
	opBatch
	opPing
	opPong
)

// maxFrame bounds a frame so a corrupt or hostile length prefix cannot
// trigger a gigantic allocation.
const maxFrame = 1 << 30

// maxHandshakeFrame bounds the frames read before a connection has
// proved anything (hello, assign, ready): a
// dialer's first four bytes must not buy a maxFrame allocation ahead of
// the token check. The largest legitimate handshake body is a token and
// a pid, three orders of magnitude below this.
const maxHandshakeFrame = 64 << 10

// writerFlushBytes caps how much a writer buffers before flushing
// inline: it bounds both coalescing memory and the size of one opBatch
// container.
const writerFlushBytes = 32 << 10

// appendFrame appends a complete frame to buf (a reusable scratch
// buffer) so the caller can issue it as one Write.
func appendFrame(buf []byte, op byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+len(body)))
	buf = append(buf, op)
	return append(buf, body...)
}

// frameScratch recycles writeFrame's assembly buffers: handshakes write
// frames often enough that a per-frame make shows up in profiles.
var frameScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeFrame sends one frame in a single Write call, assembling it in a
// pooled scratch buffer. High-rate paths coalesce consecutive frames
// instead (writer, upstream).
func writeFrame(w io.Writer, op byte, body []byte) error {
	bp := frameScratch.Get().(*[]byte)
	buf := appendFrame((*bp)[:0], op, body)
	_, err := w.Write(buf)
	*bp = buf[:0]
	frameScratch.Put(bp)
	return err
}

// readFrame reads one frame of at most limit bytes: maxHandshakeFrame
// for the frames exchanged before a connection is authenticated (a
// length prefix above it is rejected before anything is allocated),
// maxFrame after. The returned body is freshly allocated and owned by
// the caller.
func readFrame(br *bufio.Reader, limit uint32) (op byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 || length > limit {
		return 0, nil, fmt.Errorf("dist: invalid frame length %d", length)
	}
	body = make([]byte, length-1)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// readFrameInto is readFrame for single-reader hot loops: the body lands
// in *scratch (grown as needed and retained across calls), so a loop
// that consumes or copies each frame before the next read allocates
// nothing in steady state. The returned body aliases *scratch and is
// only valid until the next call with the same scratch. The header is
// peeked out of the bufio buffer rather than read through io.ReadFull,
// whose interface indirection heap-allocates the 5-byte scratch on every
// call.
func readFrameInto(br *bufio.Reader, scratch *[]byte) (op byte, body []byte, err error) {
	hdr, err := br.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 || length > maxFrame {
		return 0, nil, fmt.Errorf("dist: invalid frame length %d", length)
	}
	op = hdr[4]
	br.Discard(5) //nolint:errcheck // 5 bytes are buffered: Peek succeeded
	n := int(length - 1)
	if cap(*scratch) < n {
		*scratch = make([]byte, n, n+n/2+64)
	}
	body = (*scratch)[:n]
	if err := readFull(br, body); err != nil {
		return 0, nil, err
	}
	return op, body, nil
}

// readFull is io.ReadFull on the concrete reader: the destination slice
// stays on the caller's stack instead of escaping through the io.Reader
// interface.
func readFull(br *bufio.Reader, p []byte) error {
	for n := 0; n < len(p); {
		k, err := br.Read(p[n:])
		n += k
		if n < len(p) && err != nil {
			return err
		}
	}
	return nil
}

// pendingFrame reports whether another complete frame is already
// buffered in br — the flush-on-idle predicate: a reader that just
// handled a frame defers flushing its write side while the next frame
// can be processed without blocking, so back-to-back traffic coalesces,
// and flushes the moment it would otherwise go to sleep.
func pendingFrame(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	length := binary.BigEndian.Uint32(hdr)
	return length <= uint32(br.Buffered()-4)
}

// forEachFrame invokes fn once per logical frame: directly for a plain
// frame, and once per contained frame for an opBatch container. Batches
// never nest; sub-frame bodies alias the container's buffer.
func forEachFrame(op byte, body []byte, fn func(op byte, body []byte) error) error {
	if op != opBatch {
		return fn(op, body)
	}
	for len(body) > 0 {
		if len(body) < 4 {
			return fmt.Errorf("dist: truncated batch container")
		}
		length := binary.BigEndian.Uint32(body)
		if length == 0 || uint32(len(body)-4) < length {
			return fmt.Errorf("dist: invalid batched frame length %d", length)
		}
		sub := body[4 : 4+length]
		if sub[0] == opBatch {
			return fmt.Errorf("dist: nested batch container")
		}
		if err := fn(sub[0], sub[1:]); err != nil {
			return err
		}
		body = body[4+length:]
	}
	return nil
}

// frameBuf accumulates frames for one Write call: five bytes stay
// reserved at the head so seal can turn several pending frames into one
// opBatch container in place.
type frameBuf struct {
	buf    []byte
	frames int
}

func newFrameBuf() frameBuf { return frameBuf{buf: make([]byte, 5, 4096)} }

func (b *frameBuf) add(op byte, body []byte) {
	b.buf = appendFrame(b.buf, op, body)
	b.frames++
}

// seal returns the wire image of everything pending — a single frame
// verbatim, or several wrapped in one opBatch container (one
// multi-message frame, one TCP segment). It aliases the buffer until the
// next reset.
func (b *frameBuf) seal() []byte {
	if b.frames == 1 {
		return b.buf[5:]
	}
	binary.BigEndian.PutUint32(b.buf, uint32(1+len(b.buf)-5))
	b.buf[4] = opBatch
	return b.buf
}

// reset empties the buffer, dropping a backing array a one-off burst
// grew far past the flush threshold.
func (b *frameBuf) reset() {
	if cap(b.buf) > 4*writerFlushBytes {
		*b = newFrameBuf()
		return
	}
	b.buf, b.frames = b.buf[:5], 0
}

// writer coalesces frames toward one connection on the coordinator,
// where any rank may send toward any worker. Write appends a frame to
// the pending buffer without touching the socket; Flush issues
// everything pending as one (blocking) Write call. Writers are safe for
// concurrent use; the first I/O error latches and fails every subsequent
// call.
//
// The flush discipline is the caller's contract: every goroutine that
// Writes must Flush before blocking (writer cannot know when the
// sender's burst is over). Write self-flushes past writerFlushBytes so
// pending data and batch frames stay bounded. The blocking Write is safe
// here because a worker never stops reading its down stream (see
// upstream).
//
// Under a recovery budget the writer also keeps the connection's
// un-echoed suffix: a copy of every opSend body it took, in wire order,
// until the connection's reader retires it on reading the worker's echo
// (echoed). retarget writes that suffix down a replacement connection.
type writer struct {
	mu      sync.Mutex
	dst     io.Writer
	pending frameBuf
	err     error

	keep     bool
	unechoed [][]byte // live from head
	head     int
}

// newWriter returns a coalescing frame writer over dst (an unbuffered
// connection: writer is the buffer).
func newWriter(dst io.Writer) *writer {
	return &writer{dst: dst, pending: newFrameBuf()}
}

// Write appends one frame to the pending buffer, flushing inline only
// when the buffer exceeds writerFlushBytes.
func (w *writer) Write(op byte, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.keep && op == opSend {
		// Recorded even past a latched error: the frame is owed to
		// whichever worker replaces the dead one.
		w.unechoed = append(w.unechoed, append([]byte(nil), body...))
	}
	if w.err != nil {
		return w.err
	}
	w.pending.add(op, body)
	if len(w.pending.buf) >= writerFlushBytes {
		return w.flushLocked()
	}
	return nil
}

// echoed retires the oldest un-echoed frame, whose n-byte echo the
// connection's reader just read, and hands over its copy, which outlives
// the reader's scratch; nil when the echo matches no frame sent.
func (w *writer) echoed(n int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.unechoed) || len(w.unechoed[w.head]) != n {
		return nil
	}
	b := w.unechoed[w.head]
	w.unechoed[w.head] = nil
	w.head++
	if w.head > 64 && 2*w.head > len(w.unechoed) || w.head == len(w.unechoed) {
		k := copy(w.unechoed, w.unechoed[w.head:])
		clear(w.unechoed[k:])
		w.unechoed, w.head = w.unechoed[:k], 0
	}
	return b
}

// retarget points the writer at a replacement connection and puts the
// un-echoed suffix on it, in order and ahead of anything written later;
// whatever was pending for the old connection is in that suffix or was a
// ping.
func (w *writer) retarget(dst io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dst, w.err = dst, nil
	w.pending.reset()
	for _, b := range w.unechoed[w.head:] {
		w.pending.add(opSend, b)
	}
	return w.flushLocked()
}

// Flush issues all pending frames in one Write call; a no-op when
// nothing is pending.
func (w *writer) Flush() error {
	_, err := w.FlushN()
	return err
}

// FlushN is Flush reporting how many frames it put on the wire (0 when
// nothing was pending; >1 means the frames went out coalesced in one
// opBatch container). The transport's trace instrumentation uses the
// count to record flush and batch events only for flushes that did work.
func (w *writer) FlushN() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	n := w.pending.frames
	return n, w.flushLocked()
}

func (w *writer) flushLocked() error {
	if w.pending.frames == 0 {
		return nil
	}
	_, err := w.dst.Write(w.pending.seal())
	w.pending.reset()
	if err != nil {
		w.err = err
	}
	return err
}

// Handshake and header bodies are hand-rolled uvarint/fixed-width
// encodings, tiny cousins of the spmd payload codec.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// cursor reads the fixed-width and length-prefixed fields of a frame
// body; err latches the first truncation so call sites check once.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("dist: truncated frame body at offset %d", c.off)
	}
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) str() string {
	if c.err != nil {
		return ""
	}
	n, w := binary.Uvarint(c.b[c.off:])
	// Compare in uint64 space: a corrupt huge length must fail cleanly,
	// not overflow the int conversion into a passing bounds check (the
	// coordinator parses hello frames from arbitrary connections).
	if w <= 0 || n > uint64(len(c.b)-c.off-w) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off+w : c.off+w+int(n)])
	c.off += w + int(n)
	return s
}

// rest returns the unread remainder of the body (aliasing it).
func (c *cursor) rest() []byte {
	if c.err != nil {
		return nil
	}
	return c.b[c.off:]
}

// helloBody is the hello frame's body (worker → coordinator):
// authenticate and identify the process.
func helloBody(token string, pid int) []byte {
	buf := appendString(nil, token)
	return binary.BigEndian.AppendUint64(buf, uint64(pid))
}

// parseHello undoes helloBody.
func parseHello(b []byte) (token string, pid int, err error) {
	c := &cursor{b: b}
	token = c.str()
	pid = int(c.u64())
	return token, pid, c.err
}

// assign (coordinator → worker): rank and world size. Sent only after
// all n hellos arrived — the world-start barrier's first half.
func assignBody(rank, n int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(rank))
	return binary.BigEndian.AppendUint32(buf, uint32(n))
}

func parseAssign(b []byte) (rank, n int, err error) {
	c := &cursor{b: b}
	rank, n = int(c.u32()), int(c.u32())
	if c.err == nil && (rank < 0 || rank >= n) {
		return 0, 0, fmt.Errorf("dist: assigned rank %d outside world of %d", rank, n)
	}
	return rank, n, c.err
}

// send (coordinator → worker) and deliver (worker → coordinator) share
// one body shape: the source rank (the destination is implied by which
// connection carries the frame), the tag, the metered byte count, then
// the opaque payload. That sharing is what makes the worker's hot path a
// verbatim push: it republishes an opSend body untouched under the
// opDeliver op.
func appendMsgHeader(buf []byte, src, tag, metered int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(src))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(tag)))
	return binary.BigEndian.AppendUint64(buf, uint64(int64(metered)))
}

func parseMsgHeader(b []byte) (src, tag, metered int, payload []byte, err error) {
	c := &cursor{b: b}
	src = int(c.u32())
	tag = int(int64(c.u64()))
	metered = int(int64(c.u64()))
	return src, tag, metered, c.rest(), c.err
}
