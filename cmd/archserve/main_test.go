package main

import (
	"net/http"
	"testing"
)

// TestServerTimeouts pins the daemon's connection bounds: a header
// deadline and an idle deadline, and no write deadline, which would cut
// every SSE stream that outlives it.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (positive)", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (positive)", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: it would cut /runs/{id}/events", srv.WriteTimeout)
	}
}
