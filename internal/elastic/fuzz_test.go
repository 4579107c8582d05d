package elastic

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/backend/dist"
)

// FuzzProto feeds the elastic control plane's body parsers (the hello is
// dist's, read under elastic's op) — which run
// on frames from any dialer (hello, before the token check) and from
// workers that may be wedged or hostile — arbitrary bytes over the
// cursor shared with dist. Nothing may panic, and a body a parser
// accepts must survive its own encoder: what was parsed, re-encoded and
// parsed again is the same message.
func FuzzProto(f *testing.F) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, seed := range [][]byte{
		dist.HelloBody("0123456789abcdef", 4242), dist.HelloBody("", 0), huge,
		welcomeBody(3, 500*time.Millisecond),
		enqBody(2, 1, -7, 16, []byte{1, 2, 3}), enqBody(0, 0, 0, 0, nil),
		popBody(2, 1),
		msgBody(1, -7, 16, []byte{1, 2, 3}), msgBody(0, 0, 0, nil),
		{1, 2, 3}, nil,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if token, pid, err := dist.ParseHello(b); err == nil {
			token2, pid2, err := dist.ParseHello(dist.HelloBody(token, pid))
			if err != nil || token2 != token || pid2 != pid {
				t.Fatalf("hello (%q, %d) re-parsed as (%q, %d, %v)", token, pid, token2, pid2, err)
			}
		}
		if id, hb, err := parseWelcome(b); err == nil {
			id2, hb2, err := parseWelcome(welcomeBody(id, hb))
			if err != nil || id2 != id || hb2 != hb {
				t.Fatalf("welcome (%d, %v) re-parsed as (%d, %v, %v)", id, hb, id2, hb2, err)
			}
		}
		if rank, src, tag, metered, payload, err := parseEnq(b); err == nil {
			if again := enqBody(rank, src, tag, metered, payload); !bytes.Equal(again, b) {
				t.Fatalf("enq %x re-encoded as %x", b, again)
			}
		}
		if rank, src, err := parsePop(b); err == nil {
			if again := popBody(rank, src); !bytes.Equal(again, b[:8]) {
				t.Fatalf("pop %x re-encoded as %x", b, again)
			}
		}
		if src, tag, metered, payload, err := parseMsg(b); err == nil {
			if again := msgBody(src, tag, metered, payload); !bytes.Equal(again, b) {
				t.Fatalf("msg %x re-encoded as %x", b, again)
			}
		}
	})
}
