//go:build !unix

package dist

import "net"

// nonblockingWrite has no portable implementation here: returning nil
// sends every upstream flush down the drain path.
func nonblockingWrite(conn net.Conn) func(p []byte) (int, error) { return nil }
