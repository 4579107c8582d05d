package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"testing"

	_ "repro/arch/apps"
	"repro/internal/bnb"
	"repro/internal/spmd"
)

// reencodeEnv turns this test binary, run with -test.run naming
// TestPayloadsDecodeInAnotherProcess, into the child that decodes.
const reencodeEnv = "REPRO_PAYLOAD_REENCODE"

// TestPayloadsDecodeInAnotherProcess encodes a value of every payload
// type in spmd's table, the application types the packages of this binary
// register included, and has a child process of the same binary decode
// them and encode them again: the bytes must come back unchanged. A kind
// that only the encoding process could resolve fails in the child.
func TestPayloadsDecodeInAnotherProcess(t *testing.T) {
	if os.Getenv(reencodeEnv) == "1" {
		reencode()
	}
	samples := spmd.Samples()
	types := map[string]bool{}
	var in []byte
	for _, v := range samples {
		var err error
		if in, err = spmd.AppendPayload(in, v); err != nil {
			t.Fatalf("AppendPayload(%T): %v", v, err)
		}
		types[fmt.Sprintf("%T", v)] = true
	}
	for _, v := range []any{bnb.KnapNode{}, []bnb.KnapNode{}, spmd.Wrapped{}} {
		if !types[reflect.TypeOf(v).String()] {
			t.Errorf("the payload table has no %T", v)
		}
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPayloadsDecodeInAnotherProcess$")
	cmd.Env = append(os.Environ(), reencodeEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("%d payload types: the child re-encoded %d bytes as %d different ones", len(samples), len(in), len(out))
	}
}

// reencode is the child: it decodes the payloads on standard input one
// after another, writes each one's encoding to standard output, and exits.
func reencode() {
	in, err := io.ReadAll(os.Stdin)
	var out []byte
	for i := 0; err == nil && len(in) > 0; i++ {
		var v any
		var n int
		if v, n, err = spmd.DecodePayload(in); err != nil {
			err = fmt.Errorf("payload %d: %w", i, err)
		} else if out, err = spmd.AppendPayload(out, v); err == nil {
			in = in[n:]
		}
	}
	if err == nil {
		_, err = os.Stdout.Write(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
