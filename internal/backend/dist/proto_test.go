package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// TestProtoRoundTrip pins the frame-body encodings the control plane
// speaks.
func TestProtoRoundTrip(t *testing.T) {
	token, pid, err := parseHello(helloBody("tok", 42))
	if err != nil || token != "tok" || pid != 42 {
		t.Fatalf("hello round trip = %q %d %v", token, pid, err)
	}
	rank, n, err := parseAssign(assignBody(2, 3))
	if err != nil || rank != 2 || n != 3 {
		t.Fatalf("assign round trip = %d %d %v", rank, n, err)
	}
	r, tag, metered, payload, err := parseMsgHeader(append(appendMsgHeader(nil, 5, -7, 16), 1, 2))
	if err != nil || r != 5 || tag != -7 || metered != 16 || !bytes.Equal(payload, []byte{1, 2}) {
		t.Fatalf("msg header round trip = %d %d %d %v %v", r, tag, metered, payload, err)
	}
}

// TestWriterCoalescing pins the Writer's framing contract: a lone pending
// frame goes out verbatim, back-to-back frames go out as one opBatch
// container, and forEachFrame expands the container back into the
// original sequence.
func TestWriterCoalescing(t *testing.T) {
	var sink bytes.Buffer
	w := newWriter(&sink)

	// Single frame: byte-identical to an uncoalesced WriteFrame.
	if err := w.Write(opSend, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := appendFrame(nil, opSend, []byte("solo")); !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("single frame = %v, want %v", sink.Bytes(), want)
	}

	// Double flush is a no-op: nothing pending, nothing written.
	n := sink.Len()
	if err := w.Flush(); err != nil || sink.Len() != n {
		t.Fatalf("idle flush wrote %d bytes (err %v)", sink.Len()-n, err)
	}

	// Burst: three frames coalesce into one batch container.
	sink.Reset()
	frames := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, f := range frames {
		if err := w.Write(opDeliver, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	op, body, err := readFrame(bufio.NewReader(bytes.NewReader(sink.Bytes())), maxFrame)
	if err != nil || op != opBatch {
		t.Fatalf("burst frame op = %d (err %v), want opBatch", op, err)
	}
	var got [][]byte
	err = forEachFrame(op, body, func(op byte, b []byte) error {
		if op != opDeliver {
			t.Errorf("batched op = %d, want opDeliver", op)
		}
		got = append(got, append([]byte(nil), b...))
		return nil
	})
	if err != nil || len(got) != len(frames) {
		t.Fatalf("batch expanded to %d frames (err %v), want %d", len(got), err, len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("batched frame %d = %q, want %q", i, got[i], frames[i])
		}
	}
}

// TestWriterSelfFlush pins the buffer bound: a burst past writerFlushBytes
// flushes inline rather than growing without limit, and the stream stays
// decodable.
func TestWriterSelfFlush(t *testing.T) {
	var sink bytes.Buffer
	w := newWriter(&sink)
	payload := make([]byte, 1024)
	const sent = 100 // ~100 KiB total, several self-flushes
	for i := range sent {
		payload[0] = byte(i)
		if err := w.Write(opDeliver, payload); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Len() == 0 {
		t.Fatal("no self-flush: buffer grew past writerFlushBytes")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(sink.Bytes()))
	seen := 0
	for {
		op, body, err := readFrame(br, maxFrame)
		if err != nil {
			break
		}
		if err := forEachFrame(op, body, func(op byte, b []byte) error {
			if op != opDeliver || len(b) != len(payload) || b[0] != byte(seen) {
				t.Fatalf("frame %d corrupted: op %d, len %d, lead %d", seen, op, len(b), b[0])
			}
			seen++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != sent {
		t.Fatalf("decoded %d frames, want %d", seen, sent)
	}
}

// TestWriterLatchedError pins fail-fast: after the destination errors,
// every subsequent Write and Flush reports it.
func TestWriterLatchedError(t *testing.T) {
	w := newWriter(failWriter{})
	if err := w.Write(opSend, []byte("x")); err != nil {
		t.Fatalf("buffered write errored early: %v", err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush to a failing writer returned nil")
	}
	if err := w.Write(opSend, []byte("y")); err == nil {
		t.Fatal("write after latched error returned nil")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush after latched error returned nil")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("wire down") }

// TestForEachFrameRejectsMalformedBatch pins container hygiene: nested
// batches and truncated sub-frames are errors, not panics or silent
// drops.
func TestForEachFrameRejectsMalformedBatch(t *testing.T) {
	nop := func(byte, []byte) error { return nil }
	inner := appendFrame(nil, opBatch, appendFrame(nil, opDeliver, []byte("x")))
	if err := forEachFrame(opBatch, inner, nop); err == nil {
		t.Error("nested batch accepted")
	}
	truncated := appendFrame(nil, opDeliver, []byte("payload"))
	if err := forEachFrame(opBatch, truncated[:len(truncated)-3], nop); err == nil {
		t.Error("truncated batch accepted")
	}
	if err := forEachFrame(opBatch, []byte{0, 0, 0, 0}, nop); err == nil {
		t.Error("zero-length batched frame accepted")
	}
}

// TestPendingFrame pins the flush-on-idle predicate: true exactly when a
// complete frame is already buffered.
func TestPendingFrame(t *testing.T) {
	full := appendFrame(nil, opDeliver, []byte("hello"))
	br := bufio.NewReader(bytes.NewReader(append(full, full[:7]...)))
	if pendingFrame(br) {
		t.Error("pendingFrame true before any buffered read")
	}
	if _, err := br.Peek(1); err != nil { // prime the buffer
		t.Fatal(err)
	}
	if !pendingFrame(br) {
		t.Error("pendingFrame false with a complete frame buffered")
	}
	if _, _, err := readFrame(br, maxFrame); err != nil {
		t.Fatal(err)
	}
	if pendingFrame(br) {
		t.Error("pendingFrame true with only a partial frame left")
	}
}

// TestProtoMalformedFrames pins that forged or corrupt frames surface as
// errors, never panics: the coordinator's control listener parses hello
// frames from arbitrary connections.
func TestProtoMalformedFrames(t *testing.T) {
	// A string whose uvarint length is astronomically larger than the
	// body: the overflow-bait case.
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, _, err := parseHello(huge); err == nil {
		t.Error("parseHello(huge length): want error")
	}
	// A rank outside its world (which covers an empty world) is refused.
	for _, rn := range [][2]int{{2, 2}, {0, 0}} {
		if _, _, err := parseAssign(assignBody(rn[0], rn[1])); err == nil {
			t.Errorf("parseAssign(rank %d of %d): want error", rn[0], rn[1])
		}
	}
	for _, b := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, _, err := parseHello(b); err == nil {
			t.Errorf("parseHello(%v): want error", b)
		}
		if _, _, err := parseAssign(b); err == nil {
			t.Errorf("parseAssign(%v): want error", b)
		}
		if _, _, _, _, err := parseMsgHeader(b); err == nil {
			t.Errorf("parseMsgHeader(%v): want error", b)
		}
	}
	// Zero and oversized frame lengths are rejected before allocation.
	for _, hdr := range [][]byte{
		{0, 0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 0},
	} {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), maxFrame); err == nil {
			t.Errorf("readFrame(length %v): want error", hdr[:4])
		}
	}
}

// TestHandshakeFrameBound pins that a connection which has proved
// nothing cannot make its reader allocate: the coordinator reads hello
// frames from arbitrary dialers before checking the token, and a 4-byte
// prefix naming a ~1 GiB frame (legal for readFrame) must be refused by
// the handshake read on the length alone.
func TestHandshakeFrameBound(t *testing.T) {
	hostile := []byte{0x3f, 0xff, 0xff, 0xff, opHello}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bufio.NewReaderSize(bytes.NewReader(hostile), 16), maxHandshakeFrame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("the handshake read accepted a 0x3fffffff length prefix")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting the prefix allocated %d bytes", grew)
	}
	// The bound itself: the largest handshake frame passes, one byte more
	// does not, and a real hello is far inside it.
	atBound := appendFrame(nil, opHello, make([]byte, maxHandshakeFrame-1))
	if _, body, err := readFrame(bufio.NewReader(bytes.NewReader(atBound)), maxHandshakeFrame); err != nil || len(body) != maxHandshakeFrame-1 {
		t.Fatalf("frame at the bound: %d bytes, %v", len(body), err)
	}
	over := appendFrame(nil, opHello, make([]byte, maxHandshakeFrame))
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(over)), maxHandshakeFrame); err == nil {
		t.Fatal("frame one byte over the bound accepted")
	}
	if n := len(helloBody("0123456789abcdef0123456789abcdef", 1<<22)); n*1000 > maxHandshakeFrame {
		t.Fatalf("hello body is %d bytes: the bound is no longer 1000x the largest handshake frame", n)
	}
}
