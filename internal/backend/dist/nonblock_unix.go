//go:build unix

package dist

import (
	"net"
	"os"
	"syscall"
)

// nonblockingWrite returns a function that makes one write(2) attempt on
// conn's descriptor without waiting for writability and reports how many
// bytes the kernel took — zero, not an error, when the socket buffer is
// full. It returns nil for a connection with no descriptor (net.Pipe).
// The returned function is for one goroutine at a time and allocates
// nothing per call.
func nonblockingWrite(conn net.Conn) func(p []byte) (int, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	var (
		buf  []byte
		n    int
		werr error
	)
	attempt := func(fd uintptr) bool {
		n, werr = syscall.Write(int(fd), buf)
		return true // done either way: waiting for writability is the caller's drainer's job
	}
	return func(p []byte) (int, error) {
		buf = p
		err := rc.Write(attempt)
		buf = nil
		switch {
		case err != nil: // descriptor closed
			return 0, err
		case werr == syscall.EAGAIN || werr == syscall.EWOULDBLOCK || werr == syscall.EINTR:
			return 0, nil
		case werr != nil:
			// The shape conn.Write reports, so callers classify both alike.
			return 0, &net.OpError{Op: "write", Net: conn.RemoteAddr().Network(), Addr: conn.RemoteAddr(),
				Err: os.NewSyscallError("write", werr)}
		}
		return n, nil
	}
}
