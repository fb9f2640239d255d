package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"smtpsim/internal/serve"
)

// TestSlowClientIsCut holds a connection open with half a request line:
// the server must close it once readHeaderTimeout passes, while a normal
// submission on another connection is still served.
func TestSlowClientIsCut(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", srv.Handler())
	go hs.Serve(ln)
	defer hs.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := slow.Write([]byte("POST /v1/ru")); err != nil {
		t.Fatal(err)
	}

	spec := `{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,"seed":42,"max_cycles":200000}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal submission beside the slow client: status %d: %s", resp.StatusCode, body)
	}

	// Reading returns once the server closes the connection; a read still
	// blocked past the timeout plus slack fails on this deadline instead.
	if err := slow.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("slow connection still open %v after it connected: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Fatalf("slow connection closed after %v, well before the %v header timeout", elapsed, readHeaderTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
