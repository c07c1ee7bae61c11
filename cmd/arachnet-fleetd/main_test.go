package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that opens a connection and never finishes its request
// headers must be disconnected once readHeaderTimeout passes, instead
// of holding the connection open indefinitely.
func TestStalledHeadersDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if hs.IdleTimeout != idleTimeout {
		t.Fatalf("idle timeout %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: fleetd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Generous upper bound: the read only fails this way if the server
	// never closes the connection.
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue // an error response before the close is fine
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection still open %v after the partial request", time.Since(start))
		}
		break // closed by the server
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Fatalf("closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
