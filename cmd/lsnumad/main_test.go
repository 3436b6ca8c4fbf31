package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientIsDisconnected sends a partial request line on a
// raw connection and never finishes it: the daemon's server must hang up
// once readHeaderTimeout passes, while a well-behaved client on another
// connection is served as usual.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header timeout; skipped in -short")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("well-behaved request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-behaved request: status %d", resp.StatusCode)
	}

	if err := slow.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(slow)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow connection still open after %v: %v", elapsed, err)
	}
	// net/http may answer the truncated request with a 400 before it
	// hangs up; anything else would mean it served the request.
	if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 400 ") {
		t.Fatalf("slow connection got a reply other than 400:\n%s", reply)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Errorf("slow connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
