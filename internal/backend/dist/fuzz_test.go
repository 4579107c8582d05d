package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrames feeds the frame readers and body parsers — everything
// between a control socket and the transport — arbitrary bytes. Nothing
// may panic; readFrame and readFrameInto must agree; an accepted batch
// container must be exactly its sub-frames (a truncated one errors) and
// must never hand the callback another container (a nested one errors);
// and the handshake reader must refuse what its bound says it refuses.
//
// The seeds are proto_test.go's cases: plain and coalesced frames, the
// malformed containers, the handshake bodies and their forged lengths —
// plus the liveness pair, ping and pong.
func FuzzFrames(f *testing.F) {
	hello, assign := helloBody("tok", 42), assignBody(2, 3)
	msg := append(appendMsgHeader(nil, 5, -7, 16), 1, 2)
	huge := binary.AppendUvarint(nil, 1<<62)
	var coalesced bytes.Buffer
	w := newWriter(&coalesced)
	for _, b := range [][]byte{[]byte("a"), msg, nil} {
		w.Write(opDeliver, b) //nolint:errcheck // bytes.Buffer
	}
	w.Flush() //nolint:errcheck // bytes.Buffer
	nested := appendFrame(nil, opBatch, appendFrame(nil, opBatch, appendFrame(nil, opDeliver, []byte("x"))))
	for _, seed := range [][]byte{
		appendFrame(nil, opHello, hello), appendFrame(nil, opAssign, assign),
		appendFrame(nil, opSend, msg), appendFrame(nil, opHello, huge),
		appendFrame(nil, opReady, nil), coalesced.Bytes(), nested,
		coalesced.Bytes()[:coalesced.Len()-3],
		appendFrame(nil, opBatch, []byte{0, 0, 0, 0}),
		{0, 0, 0, 0, 0}, {0x3f, 0xff, 0xff, 0xff, opHello}, {0xff, 0xff, 0xff, 0xff, 0},
		{1}, nil,
		appendFrame(nil, opPing, nil), appendFrame(nil, opPong, nil),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		declared := uint32(0)
		if len(in) >= 4 {
			declared = binary.BigEndian.Uint32(in)
		}
		_, hbody, herr := readFrame(bufio.NewReader(bytes.NewReader(in)), maxHandshakeFrame)
		if herr == nil && (declared > maxHandshakeFrame || len(hbody) != int(declared)-1) {
			t.Fatalf("handshake reader returned %d bytes for a declared length of %d", len(hbody), declared)
		}
		if declared > 1<<20 {
			// Past authentication a prefix up to maxFrame is allocated on
			// sight (message frames are legitimately tens of MiB); not
			// something to do per fuzz execution.
			return
		}
		op, body, err := readFrame(bufio.NewReader(bytes.NewReader(in)), maxFrame)
		var scratch []byte
		op2, body2, err2 := readFrameInto(bufio.NewReader(bytes.NewReader(in)), &scratch)
		if (err == nil) != (err2 == nil) || (err == nil && (op != op2 || !bytes.Equal(body, body2))) {
			t.Fatalf("readFrame = (%d, %d bytes, %v), readFrameInto = (%d, %d bytes, %v)", op, len(body), err, op2, len(body2), err2)
		}
		if (err == nil) != (herr == nil) && declared <= maxHandshakeFrame {
			t.Fatalf("inside the handshake bound, readFrame err = %v but the handshake read err = %v", err, herr)
		}
		if err != nil {
			return
		}
		covered := 0
		err = forEachFrame(op, body, func(sub byte, b []byte) error {
			if op == opBatch && sub == opBatch {
				t.Fatal("a nested batch container reached the callback")
			}
			covered += 4 + 1 + len(b)
			parseHello(b)     //nolint:errcheck // must not panic
			parseAssign(b)    //nolint:errcheck
			parseMsgHeader(b) //nolint:errcheck
			return nil
		})
		if op == opBatch && err == nil && covered != len(body) {
			t.Fatalf("batch of %d bytes accepted, but its sub-frames cover %d", len(body), covered)
		}
	})
}
