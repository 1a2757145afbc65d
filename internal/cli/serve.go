package cli

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

// serveArgs is what the serve command's flags set: the server options
// plus the listener settings that live outside the server.
type serveArgs struct {
	serve.Options
	addr, addrFile string
	drain          time.Duration
}

// flags declares the serve command's flags, bound into a.
func (a *serveArgs) flags() *flag.FlagSet {
	fs := newFlagSet("serve")
	fs.StringVar(&a.addr, "addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks one)")
	fs.StringVar(&a.addrFile, "addr-file", "", "write the bound address to this file once listening")
	fs.IntVar(&a.QueueCapacity, "queue", 16, "bounded job backlog; beyond it submissions get HTTP 429")
	fs.IntVar(&a.Workers, "workers", 0, "concurrent jobs (0 = all cores)")
	fs.IntVar(&a.EngineWorkers, "engine-workers", 1, "default per-job experiment engine width")
	fs.StringVar(&a.StoreDir, "store", "", "persistent report store directory (empty = in-memory only)")
	fs.Int64Var(&a.StoreBudget, "store-budget", 0, "store LRU byte budget (0 = unbounded)")
	fs.IntVar(&a.LedgerBatch, "ledger-batch", 0, "provenance ledger Merkle batch size (1 = seal every append; 0 = default 64)")
	fs.DurationVar(&a.LedgerFlush, "ledger-flush", 0, "provenance ledger flush interval (0 = default 2s; negative disables the timer)")
	fs.Int64Var(&a.CacheBudget, "cache-budget", 0, "in-memory report cache budget in estimated resident bytes (0 = unbounded)")
	fs.DurationVar(&a.DefaultTimeout, "timeout", 0, "default per-job execution cap (0 = none)")
	fs.DurationVar(&a.drain, "drain", 30*time.Second, "graceful-shutdown drain budget")
	return fs
}

// serveWithContext is Serve with an injectable lifetime, the test seam.
func serveWithContext(ctx context.Context, w io.Writer, args []string) error {
	var a serveArgs
	fs := a.flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	srv, err := serve.New(a.Options)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if a.addrFile != "" {
		if err := os.WriteFile(a.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("serve: -addr-file: %w", err)
		}
	}
	fmt.Fprintf(w, "diogenes serve listening on http://%s (queue %d", bound, a.QueueCapacity)
	if a.StoreDir != "" {
		fmt.Fprintf(w, ", store %s", a.StoreDir)
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

	fmt.Fprintf(w, "diogenes serve: shutting down, draining accepted jobs (budget %s) ...\n", a.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), a.drain)
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
