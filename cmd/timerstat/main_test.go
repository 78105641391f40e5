package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"timerstudy/internal/serve"
)

// TestServeDropsSlowHeader: a client that sends half a request header and
// then stalls is disconnected once ReadHeaderTimeout passes, rather than
// holding the connection open.
func TestServeDropsSlowHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.NotFoundHandler())
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /api/summary HTTP/1.1\r\nHost: loopback\r\n"); err != nil {
		t.Fatal(err)
	}
	// Slack beyond the timeout absorbs scheduling delay on a loaded host;
	// a server without the timeout never closes, so the read deadline
	// fires instead.
	conn.SetReadDeadline(start.Add(serve.ReadHeaderTimeout + 5*time.Second))
	n, err := conn.Read(make([]byte, 1))
	if err == nil {
		t.Fatalf("server answered a half-sent header (%d bytes)", n)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a half-sent header", time.Since(start))
	}
	if took := time.Since(start); took < serve.ReadHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before ReadHeaderTimeout %v", took, serve.ReadHeaderTimeout)
	}
}
