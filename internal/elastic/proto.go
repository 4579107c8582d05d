package elastic

import (
	"encoding/binary"
	"time"

	"repro/internal/backend/dist"
)

// The elastic control protocol rides the dist backend's length-prefixed
// frame format ([u32 BE length][u8 op][body], see dist.ReadFrame) with
// its own op space. One TCP connection per worker carries everything:
//
//   - handshake: hello (worker → coordinator: token, pid — dist's hello
//     body, dist.HelloBody) answered by welcome (worker id, heartbeat
//     interval);
//   - data plane: enq (coordinator → worker, fire-and-forget: store a
//     message in the worker-side inbox of the rank it hosts) and
//     pop (coordinator → worker, request) answered by msg (response) —
//     the coordinator only pops messages its shadow queues prove are
//     present, so a pop never blocks worker-side;
//   - liveness: ping answered by pong;
//   - teardown: finish answered by bye.
//
// The coordinator serializes request/response pairs per connection (one
// outstanding request), so no correlation ids are needed. Payloads are
// spmd wire-codec bytes; workers store and echo them opaquely.
const (
	opHello byte = 64 + iota
	opWelcome
	opEnq
	opPop
	opMsg
	opPing
	opPong
	opFinish
	opBye
)

// welcome (coordinator → worker): attach acknowledgment.
func welcomeBody(id int, heartbeat time.Duration) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(id))
	return binary.BigEndian.AppendUint64(buf, uint64(heartbeat))
}

func parseWelcome(b []byte) (id int, heartbeat time.Duration, err error) {
	c := &dist.Cursor{B: b}
	id = int(c.U32())
	heartbeat = time.Duration(c.U64())
	return id, heartbeat, c.Err
}

// enq (coordinator → worker): store a message for a hosted rank. msg
// (worker → coordinator) reuses the same body shape minus the rank field
// prefix — pop names the (rank, src) pair, msg echoes (src, tag, metered,
// payload).
func enqBody(rank, src, tag, metered int, payload []byte) []byte {
	buf := make([]byte, 0, 24+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(src))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(tag)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(metered)))
	return append(buf, payload...)
}

func parseEnq(b []byte) (rank, src, tag, metered int, payload []byte, err error) {
	c := &dist.Cursor{B: b}
	rank, src = int(c.U32()), int(c.U32())
	tag = int(int64(c.U64()))
	metered = int(int64(c.U64()))
	return rank, src, tag, metered, c.Rest(), c.Err
}

func popBody(rank, src int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(rank))
	return binary.BigEndian.AppendUint32(buf, uint32(src))
}

func parsePop(b []byte) (rank, src int, err error) {
	c := &dist.Cursor{B: b}
	rank, src = int(c.U32()), int(c.U32())
	return rank, src, c.Err
}

func msgBody(src, tag, metered int, payload []byte) []byte {
	buf := make([]byte, 0, 20+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(src))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(tag)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(metered)))
	return append(buf, payload...)
}

func parseMsg(b []byte) (src, tag, metered int, payload []byte, err error) {
	c := &dist.Cursor{B: b}
	src = int(c.U32())
	tag = int(int64(c.U64()))
	metered = int(int64(c.U64()))
	return src, tag, metered, c.Rest(), c.Err
}
