package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-memo-cap", "-1"},
		{"-cache-dir", file},
		{"-addr", "999.999.999.999:0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// syncWriter lets the daemon goroutine write output while the test reads it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestRunServesAndShutsDownOnSignal(t *testing.T) {
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-memo-cap", "128"}, &out)
	}()

	var base string
	for i := 0; i < 100; i++ {
		if _, rest, ok := strings.Cut(out.String(), "listening on "); ok {
			base = strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never reported a listen address (output %q)", out.String())
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	// run installed a handler for SIGTERM, so signalling our own process
	// exercises the graceful-shutdown path without killing the test.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("shutdown not reported (output %q)", out.String())
	}
}

func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts header/read/idle = %v/%v/%v, want all set", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	// NDJSON streams stay open for a whole job: no write deadline.
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
}
