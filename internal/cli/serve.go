package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diogenes/internal/serve"
)

// Serve runs the analysis pipeline as a long-lived HTTP daemon (see
// internal/serve). It blocks until SIGINT/SIGTERM, then drains: accepted
// jobs finish and persist their reports before the process exits.
func Serve(w io.Writer, args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveWithContext(ctx, w, args)
}

// serveWithContext is Serve with an injectable lifetime, the test seam.
func serveWithContext(ctx context.Context, w io.Writer, args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks one)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	queueCap := fs.Int("queue", 16, "bounded job backlog; beyond it submissions get HTTP 429")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = all cores)")
	engineWorkers := fs.Int("engine-workers", 1, "default per-job experiment engine width")
	storeDir := fs.String("store", "", "persistent report store directory (empty = in-memory only)")
	storeBudget := fs.Int64("store-budget", 0, "store LRU byte budget (0 = unbounded)")
	ledgerBatch := fs.Int("ledger-batch", 0, "provenance ledger Merkle batch size (1 = seal every append; 0 = default 64)")
	ledgerFlush := fs.Duration("ledger-flush", 0, "provenance ledger flush interval (0 = default 2s; negative disables the timer)")
	cacheBudget := fs.Int64("cache-budget", 0, "in-memory report cache budget in estimated resident bytes (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "default per-job execution cap (0 = none)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	srv, err := serve.New(serve.Options{
		Workers:        *workers,
		QueueCapacity:  *queueCap,
		EngineWorkers:  *engineWorkers,
		DefaultTimeout: *timeout,
		StoreDir:       *storeDir,
		StoreBudget:    *storeBudget,
		LedgerBatch:    *ledgerBatch,
		LedgerFlush:    *ledgerFlush,
		CacheBudget:    *cacheBudget,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("serve: -addr-file: %w", err)
		}
	}
	fmt.Fprintf(w, "diogenes serve listening on http://%s (queue %d", bound, *queueCap)
	if *storeDir != "" {
		fmt.Fprintf(w, ", store %s", *storeDir)
	}
	fmt.Fprintln(w, ")")

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}

	fmt.Fprintf(w, "diogenes serve: shutting down, draining accepted jobs (budget %s) ...\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job queue first — in-flight reports persist — then close
	// the HTTP side.
	drainErr := srv.Shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(w, "diogenes serve: http shutdown: %v\n", err)
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(w, "diogenes serve: drained, bye")
	return nil
}
