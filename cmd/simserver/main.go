// Command simserver runs the simulation service: an HTTP/JSON API that
// accepts experiment specs, executes them on a bounded worker pool, and
// serves every repeat of a spec byte-identically from a content-addressed
// result cache keyed by the canonical Config hash (DESIGN.md §12).
//
//	simserver -addr :8080 -workers 4 -queue 64 -cache-mb 256
//
// Submit a spec:
//
//	curl -d '{"app":"FFT","model":"SMTp","nodes":4,"scale":0.25}' \
//	    localhost:8080/v1/runs
//
// The first SIGINT/SIGTERM drains gracefully: new submissions get 503,
// in-flight runs finish (bounded by -drain-timeout), then the process
// exits. A second signal aborts the in-flight runs immediately.
//
// -selftest boots the server on a loopback port, submits one spec twice,
// and verifies the second response is a byte-identical cache hit — the
// end-to-end smoke test `make serve-smoke` runs.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smtpsim/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max queued runs before submissions get 503 (0 = 64)")
		cacheMB  = flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = 256)")
		cacheDir = flag.String("cache-dir", "", "persist the result cache to content-addressed files under this directory and reload them on boot")
		drainFor = flag.Duration("drain-timeout", 2*time.Minute,
			"how long a shutdown signal waits for in-flight runs before aborting them")
		selftest = flag.Bool("selftest", false,
			"boot on a loopback port, verify the cache round trip, exit")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: *cacheMB << 20,
		CacheDir:   *cacheDir,
	}
	if *selftest {
		if err := runSelftest(opts); err != nil {
			fmt.Fprintln(os.Stderr, "simserver: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("serve-smoke: ok")
		return
	}
	if err := run(*addr, opts, *drainFor); err != nil {
		fmt.Fprintln(os.Stderr, "simserver:", err)
		os.Exit(1)
	}
}

// Slow-client limits for every listener. A client must finish its request
// headers within readHeaderTimeout of connecting (or of its previous
// request), and a keep-alive connection idle for idleTimeout is closed.
// There is deliberately no WriteTimeout: it would cut long NDJSON/SSE
// result streams.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the service's http.Server for h, with the
// slow-client limits set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run serves until a shutdown signal, then drains: admission stops (503),
// in-flight runs finish, the listener closes. A second signal — or the
// drain timeout — aborts the in-flight runs through their run context.
func run(addr string, opts serve.Options, drainFor time.Duration) error {
	srv := serve.New(opts)
	hs := newHTTPServer(addr, srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simserver: listening on %s\n", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // re-arm signals: the next one cancels the drain below
	fmt.Fprintln(os.Stderr, "simserver: draining (signal again to abort in-flight runs)")

	drainCtx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	drainCtx, cancelTimeout := context.WithTimeout(drainCtx, drainFor)
	defer cancelTimeout()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "simserver: drain cut short: %v\n", err)
	}
	return hs.Shutdown(context.Background())
}

// runSelftest exercises the service end to end on a loopback port: the
// same spec submitted twice must miss then hit, with byte-identical
// bodies, and the result must be fetchable by its content address. A
// second server instance booted on the same cache directory must then
// serve the spec as an immediate hit — persistence across restarts.
func runSelftest(opts serve.Options) error {
	if opts.CacheDir == "" {
		dir, err := os.MkdirTemp("", "simserver-selftest-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.CacheDir = dir
	}
	srv := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer("", srv.Handler())
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer hs.Close()

	spec := `{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,"seed":42,` +
		`"max_cycles":200000,"metrics_interval":10000}`
	postTo := func(base string) (string, []byte, error) {
		resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			return "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache"), body, nil
	}
	post := func() (string, []byte, error) { return postTo(base) }

	c1, b1, err := post()
	if err != nil {
		return fmt.Errorf("first submit: %w", err)
	}
	if c1 != "miss" {
		return fmt.Errorf("first submit: X-Cache = %q, want miss", c1)
	}
	c2, b2, err := post()
	if err != nil {
		return fmt.Errorf("second submit: %w", err)
	}
	if c2 != "hit" {
		return fmt.Errorf("second submit: X-Cache = %q, want hit", c2)
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Errorf("cache hit body differs from the original run (%d vs %d bytes)",
			len(b1), len(b2))
	}

	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	sb, _ := io.ReadAll(stats.Body)
	stats.Body.Close()
	for _, want := range []string{`"cache.hits": 1`, `"runs.completed": 1`} {
		if !strings.Contains(string(sb), want) {
			return fmt.Errorf("stats missing %s:\n%s", want, sb)
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	// Reboot on the same cache directory: the result must come straight
	// from disk, byte-identical, without a simulation.
	srv2 := serve.New(opts)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs2 := newHTTPServer("", srv2.Handler())
	go hs2.Serve(ln2)
	defer hs2.Close()
	c3, b3, err := postTo("http://" + ln2.Addr().String())
	if err != nil {
		return fmt.Errorf("submit after reboot: %w", err)
	}
	if c3 != "hit" {
		return fmt.Errorf("submit after reboot: X-Cache = %q, want hit from %s", c3, opts.CacheDir)
	}
	if !bytes.Equal(b1, b3) {
		return fmt.Errorf("rebooted cache hit differs from the original run (%d vs %d bytes)",
			len(b1), len(b3))
	}
	if err := srv2.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain rebooted server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "selftest: %d-byte result served twice, second from cache, third from a rebooted server's disk cache\n", len(b1))
	return nil
}
