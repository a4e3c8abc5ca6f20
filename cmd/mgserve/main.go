// Command mgserve runs the tuning daemon: an HTTP/JSON job queue that
// executes stress, cloning, and tuner-comparison experiments over ONE shared
// content-addressed evaluation cache and one shared program synthesizer, so
// overlapping candidate sets across jobs — resubmissions, parameter sweeps,
// concurrent clients — hit instead of re-simulating.
//
//	mgserve -addr 127.0.0.1:8080                 # in-memory unbounded cache
//	mgserve -addr 127.0.0.1:8080 -memo-cap 4096  # bounded LRU
//	mgserve -cache-dir /var/tmp/mgcache          # disk-backed, survives restarts
//
//	curl -s localhost:8080/jobs -d '{"kind":"perf-virus","quick":true,"core":"small"}'
//	curl -s localhost:8080/jobs/job-1/stream     # NDJSON progression rows
//	curl -s localhost:8080/jobs/job-1/result     # rendered report + rows
//	curl -s -X POST localhost:8080/jobs/job-1/cancel
//	curl -s localhost:8080/stats                 # shared-cache hit/miss counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"micrograd/internal/evalcache"
	"micrograd/internal/serve"
)

// Connection timeouts of the HTTP server. A client must send its request
// headers within readHeaderTimeout and the whole request (a job request is a
// small JSON object) within readTimeout; an idle keep-alive connection is
// closed after idleTimeout. There is deliberately no write timeout: an
// NDJSON progress stream stays open for the whole job it tails.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in an HTTP server with the
// connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mgserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mgserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "listen address (port 0 = pick a free port; the chosen address is printed)")
		workers  = fs.Int("workers", 2, "number of jobs run concurrently")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "evaluation fan-out cap per job (each job's requested parallelism is clamped to this)")
		memoCap  = fs.Int("memo-cap", 0, "bound the shared evaluation cache to this many entries with LRU eviction (0 = unbounded)")
		cacheDir = fs.String("cache-dir", "", "back the shared evaluation cache with this directory so it survives restarts (overrides -memo-cap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		cache evalcache.Cache
		err   error
	)
	if *cacheDir != "" {
		cache, err = evalcache.NewDisk(*cacheDir)
	} else {
		cache, err = evalcache.New(*memoCap)
	}
	if err != nil {
		return err
	}

	s := serve.New(serve.Config{
		Cache:    cache,
		Workers:  *workers,
		Parallel: *parallel,
		Now:      time.Now,
	})
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mgserve listening on http://%s\n", ln.Addr())

	httpSrv := newHTTPServer(s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(out, "mgserve: %s, shutting down\n", sig)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}

	// Stop accepting requests (give streamers a grace period), then cancel
	// every job and drain the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		_ = httpSrv.Close()
	}
	return nil
}
