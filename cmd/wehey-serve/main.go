// Command wehey-serve runs the measurement-campaign service: a durable
// job scheduler with an HTTP admin plane. Jobs are localization sessions
// over the simulator ("sim" backend, memoized through the on-disk
// simulation cache) or the loopback testbed ("testbed" backend).
//
// Usage:
//
//	wehey-serve -addr 127.0.0.1:9400 -journal campaign/journal.wj \
//	            -cache-dir campaign/simcache -workers 4
//
// The journal makes the campaign crash-safe: restart the server with the
// same -journal and it resumes every incomplete job exactly once, without
// re-running completed ones. The server prints its listening address on
// stdout (useful with -addr 127.0.0.1:0) and shuts down gracefully on
// SIGINT/SIGTERM, leaving interrupted jobs for the next run.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/nal-epfl/wehey/internal/experiments"
	"github.com/nal-epfl/wehey/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9400", "admin-plane listen address (use :0 for an ephemeral port)")
		workers    = flag.Int("workers", 4, "worker pool size")
		queueLimit = flag.Int("queue-limit", 256, "admission control: max queued jobs")
		journal    = flag.String("journal", "", "journal file path (empty = volatile, no crash safety)")
		cacheDir   = flag.String("cache-dir", "", "sim-result disk cache directory (empty = in-memory cache)")
		deadline   = flag.Duration("deadline", 5*time.Minute, "default per-attempt deadline")
	)
	flag.Parse()

	var simCache *experiments.SimCache
	if *cacheDir != "" {
		var err error
		simCache, err = experiments.NewDiskSimCache(*cacheDir)
		fatalIf(err)
	}

	sched, err := service.NewScheduler(service.Options{
		Workers:         *workers,
		QueueLimit:      *queueLimit,
		DefaultDeadline: *deadline,
		JournalPath:     *journal,
		Backends: map[string]service.Backend{
			service.BackendSim:     service.NewSimBackend(simCache),
			service.BackendTestbed: &service.TestbedBackend{},
			service.BackendNull:    service.NullBackend{},
		},
	})
	fatalIf(err)
	sched.Start()

	ln, err := net.Listen("tcp", *addr)
	fatalIf(err)
	fmt.Printf("wehey-serve listening on %s\n", ln.Addr())

	// A client that never finishes its request header must not hold a
	// connection for ever; bodies are bounded by the handler.
	srv := &http.Server{Handler: service.Handler(sched), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "wehey-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) // best-effort drain; the scheduler close below is what preserves state
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "wehey-serve: %v\n", err)
		}
	}
	sched.Close()
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "wehey-serve: %v\n", err)
		os.Exit(1)
	}
}
