// Package serve runs the Diogenes analysis pipeline as a long-lived
// daemon behind an HTTP/JSON API — the serving layer the one-shot CLI
// lacks. Three pieces, each honest about its limits:
//
//   - A job manager: POST an analysis request (application, scale,
//     experiment kind, worker count), get a job ID back. Jobs flow
//     through a bounded sched.Queue into a worker set with per-job
//     context cancellation and a configurable timeout. A full backlog is
//     *visible* backpressure — HTTP 429 with Retry-After — never
//     unbounded buffering, and a job the server accepted is never
//     dropped, even across graceful shutdown.
//   - A report store: completed job documents persist to a
//     content-addressed on-disk store keyed by the experiments suite key,
//     so an identical request is served from disk without re-running the
//     pipeline. The store carries an LRU byte budget; eviction is
//     explicit and counted.
//   - An operational surface: /healthz, job status with progress derived
//     from the job's own obs span state, report retrieval as JSON or the
//     CLI-identical text rendering, and /metrics exporting the server's
//     obs registry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"path/filepath"

	"diogenes/internal/experiments"
	"diogenes/internal/ledger"
	"diogenes/internal/obs"
	"diogenes/internal/sched"
)

// ledgerName is the provenance ledger's file inside the store directory.
// Store keys are hex, so the name can never collide with an entry.
const ledgerName = "ledger.log"

// Options configures a Server. The zero value is serviceable: an
// in-memory-only server (no persistent store) with a 16-job backlog and
// one job running per core.
type Options struct {
	// Workers bounds how many jobs execute concurrently; 0 selects
	// GOMAXPROCS.
	Workers int
	// QueueCapacity bounds how many accepted jobs may wait for a worker;
	// beyond it submissions are rejected with ErrQueueFull. 0 selects 16.
	QueueCapacity int
	// EngineWorkers is the default per-job experiment engine width when a
	// request does not name one; 0 selects 1 (serial, byte-identical to
	// the parallel widths anyway).
	EngineWorkers int
	// DefaultTimeout caps each job's execution when the request carries no
	// timeout of its own; 0 means no cap.
	DefaultTimeout time.Duration
	// RetryAfter is the fallback backoff hint sent with 429/503 responses
	// before any job has completed; once the server has observed job
	// durations the hint is derived from the live queue depth and the
	// mean job time instead. 0 selects one second.
	RetryAfter time.Duration
	// StoreDir, when non-empty, enables the persistent report store in
	// that directory (created if absent).
	StoreDir string
	// StoreBudget is the on-disk store's LRU byte budget; 0 is unbounded.
	StoreBudget int64
	// LedgerBatch is the provenance ledger's Merkle batch size — how many
	// persisted reports seal into one root. 1 seals (and syncs) every
	// append, the direct mode; 0 selects ledger.DefaultBatchSize. Only
	// meaningful with StoreDir.
	LedgerBatch int
	// LedgerFlush bounds how long an appended digest may wait in the open
	// batch before a timer seals it; 0 selects
	// ledger.DefaultFlushInterval, negative disables the timer.
	LedgerFlush time.Duration
	// CacheBudget bounds the in-memory report cache shared by all jobs,
	// in estimated resident bytes; 0 is unbounded.
	CacheBudget int64
	// RetainJobs bounds how many finished job records the manager keeps
	// for status queries; 0 selects 1024. Live jobs are never dropped.
	RetainJobs int
	// EventSnapshot is the cadence at which GET /jobs/{id}/events emits
	// progress frames while a job runs (on top of change-driven frames
	// from the span trace); 0 selects 250ms.
	EventSnapshot time.Duration
	// EventHeartbeat is the SSE keep-alive comment interval — what lets a
	// proxy or client distinguish a quiet stream from a dead one; 0
	// selects 15s.
	EventHeartbeat time.Duration
}

// Sentinel errors Submit maps to HTTP statuses.
var (
	// ErrQueueFull reports that the bounded backlog rejected the job —
	// the server's backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrShuttingDown reports that the server no longer accepts jobs
	// (HTTP 503).
	ErrShuttingDown = errors.New("serve: shutting down")
)

// BadRequestError wraps a request validation failure (HTTP 400).
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// Server is the analysis service. Create with New, mount Handler, and
// call Shutdown to drain.
type Server struct {
	opts   Options
	obs    *obs.Observer
	cache  *experiments.ReportCache
	store  *DiskStore
	ledger *ledger.Ledger
	queue  *sched.Queue
	jobs   *manager
	mux    *http.ServeMux

	accepting atomic.Bool

	// Completed-execution wall time, feeding the Retry-After hint: the
	// mean job duration scales the backoff with how long the backlog
	// actually takes to drain.
	jobNanos atomic.Int64
	jobCount atomic.Int64

	mSubmitted   *obs.Counter
	mRejected    *obs.Counter
	mCompleted   *obs.Counter
	mFailed      *obs.Counter
	mCanceled    *obs.Counter
	mStorePutErr *obs.Counter

	// hookRunning, when non-nil, is called as each job enters the running
	// state — a test seam for holding jobs in flight deterministically.
	hookRunning func(j *Job)
	// hookShutdown, when non-nil, is called by Shutdown once submissions
	// are refused and before the drain — a test seam for observing that
	// moment without polling.
	hookShutdown func()
	// hookCanceled, when non-nil, is called by handleCancel between
	// canceling the job and rendering its view — the window where
	// retention shedding once raced the handler's re-lookup.
	hookCanceled func(id string)
	// retryAfterFn renders the 429/503 backoff hint; defaults to
	// retryAfterSeconds, replaceable in tests to pin that one handler
	// response derives header and body from a single computation.
	retryAfterFn func() int
}

// New builds a started server (its workers idle until jobs arrive).
func New(opts Options) (*Server, error) {
	if opts.QueueCapacity == 0 {
		opts.QueueCapacity = 16
	}
	if opts.QueueCapacity < 1 {
		return nil, fmt.Errorf("serve: queue capacity %d, need at least 1", opts.QueueCapacity)
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 1024
	}
	if opts.EventSnapshot <= 0 {
		opts.EventSnapshot = 250 * time.Millisecond
	}
	if opts.EventHeartbeat <= 0 {
		opts.EventHeartbeat = 15 * time.Second
	}
	o := obs.New("diogenes-serve")
	s := &Server{
		opts:  opts,
		obs:   o,
		cache: experiments.NewReportCache(),
		jobs:  newManager(opts.RetainJobs),

		mSubmitted:   o.Metrics().Counter("serve/jobs_submitted"),
		mRejected:    o.Metrics().Counter("serve/jobs_rejected"),
		mCompleted:   o.Metrics().Counter("serve/jobs_completed"),
		mFailed:      o.Metrics().Counter("serve/jobs_failed"),
		mCanceled:    o.Metrics().Counter("serve/jobs_canceled"),
		mStorePutErr: o.Metrics().Counter("serve/store_put_errors"),
	}
	s.retryAfterFn = s.retryAfterSeconds
	s.cache.SetMetrics(o.Metrics())
	if opts.CacheBudget > 0 {
		s.cache.SetByteBudget(opts.CacheBudget)
	}
	if opts.StoreDir != "" {
		store, err := OpenDiskStore(opts.StoreDir, opts.StoreBudget)
		if err != nil {
			return nil, err
		}
		store.SetMetrics(o.Metrics())
		s.store = store
		led, err := ledger.Open(ledger.Config{
			Path:          filepath.Join(opts.StoreDir, ledgerName),
			BatchSize:     opts.LedgerBatch,
			FlushInterval: opts.LedgerFlush,
			Metrics:       o.Metrics(),
		})
		switch {
		case errors.Is(err, ledger.ErrLocked):
			// Another live instance shares this store directory and holds
			// the ledger; this one serves without appending — the single
			// writer keeps the chain linear. Its reports still persist;
			// they are simply vouched for by the lock holder's appends
			// when it writes the same content-addressed keys.
		case err != nil:
			// A ledger that does not replay (ErrCorrupt) or cannot be
			// opened must stop the daemon: silently serving from a store
			// whose provenance is broken is exactly the dishonesty the
			// ledger exists to prevent.
			return nil, err
		default:
			s.ledger = led
			store.AttachLedger(led)
		}
	}
	q, err := sched.NewQueue(opts.Workers, opts.QueueCapacity, o.Metrics())
	if err != nil {
		return nil, err
	}
	s.queue = q
	s.accepting.Store(true)
	s.buildMux()
	return s, nil
}

// Observer exposes the server-level self-measurement (queue, store,
// cache, job counters) — what /metrics renders.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Store returns the persistent report store, or nil when disabled.
func (s *Server) Store() *DiskStore { return s.store }

// Ledger returns the provenance ledger, or nil when the store is
// disabled or another instance holds the single-writer lock.
func (s *Server) Ledger() *ledger.Ledger { return s.ledger }

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit validates a request and either answers it from the persistent
// store (the returned job is already done, FromStore set) or enqueues it.
// Errors: *BadRequestError, ErrQueueFull, ErrShuttingDown.
func (s *Server) Submit(req Request) (*Job, error) {
	if !s.accepting.Load() {
		return nil, ErrShuttingDown
	}
	if err := req.normalize(); err != nil {
		return nil, &BadRequestError{err}
	}
	s.mSubmitted.Inc()

	jobObs := obs.New("job")
	eng := s.engineFor(&req, jobObs)
	key, _ := s.keyFor(eng, req)
	timeout := time.Duration(req.TimeoutSeconds * float64(time.Second))
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	j := newJob(req, jobObs, key, timeout)
	if req.Kind == KindFleet {
		// Fleet jobs stream reduction progress straight from the
		// engine's reduction counters.
		j.fleetProgress = eng.FleetProgress
	}

	if key != "" && s.store != nil && !req.Fresh {
		if data, err := s.store.Get(key); err == nil {
			j.markFromStore(data)
			s.jobs.add(j)
			s.mCompleted.Inc()
			return j, nil
		}
	}

	s.jobs.add(j)
	ok := s.queue.TryEnqueue(sched.Task{Name: "job/" + req.Kind, Class: classFor(req.Kind), Fn: s.taskFn(j, eng)})
	if !ok {
		s.jobs.remove(j.ID)
		s.mRejected.Inc()
		if !s.accepting.Load() {
			return nil, ErrShuttingDown
		}
		return nil, ErrQueueFull
	}
	return j, nil
}

// noteJobDuration records one completed job execution for the
// Retry-After hint.
func (s *Server) noteJobDuration(d time.Duration) {
	if d < 0 {
		return
	}
	s.jobNanos.Add(int64(d))
	s.jobCount.Add(1)
}

// meanJobNanos returns the observed mean job execution time, 0 before any
// job has completed.
func (s *Server) meanJobNanos() int64 {
	n := s.jobCount.Load()
	if n == 0 {
		return 0
	}
	return s.jobNanos.Load() / n
}

// Job returns a job by ID, or nil.
func (s *Server) Job(id string) *Job { return s.jobs.get(id) }

// Jobs returns all retained jobs in submission order.
func (s *Server) Jobs() []*Job { return s.jobs.list() }

// classFor maps an experiment kind to its queue admission class:
// single-application interactive kinds ahead of the bulk suites.
func classFor(kind string) sched.Class {
	switch kind {
	case KindRun, KindReplay:
		return sched.ClassInteractive
	}
	return sched.ClassBatch
}

// Cancel cancels a job: a queued job finishes immediately as canceled, a
// running job's context is canceled and its eventual result discarded.
// Canceling a finished job is a no-op. It returns the job, nil for an
// unknown ID — callers render the returned handle rather than looking
// the ID up again, because retention shedding may remove a finished job
// from the registry at any moment and a re-lookup can come back nil.
func (s *Server) Cancel(id string) *Job {
	j := s.jobs.get(id)
	if j == nil {
		return nil
	}
	j.cancel()
	if j.finishIfQueued(StateCanceled, "job canceled before start") {
		s.mCanceled.Inc()
	}
	return j
}

// Shutdown gracefully stops the server: new submissions are refused with
// ErrShuttingDown, every accepted job is drained (queued jobs run, the
// in-flight ones finish and persist their reports), and the store is
// flushed. The context bounds the drain; on expiry the drain continues in
// the background but Shutdown returns the context error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.accepting.Store(false)
	if s.hookShutdown != nil {
		s.hookShutdown()
	}
	done := make(chan struct{})
	go func() {
		s.queue.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown drain: %w", ctx.Err())
	}
	// Every drained job's Put has appended by now; sealing the final
	// batch makes the last reports provable before the process exits.
	if s.ledger != nil {
		if err := s.ledger.Close(); err != nil {
			return fmt.Errorf("serve: shutdown ledger: %w", err)
		}
	}
	if s.store != nil {
		s.store.Flush()
	}
	return nil
}

// engineFor builds the per-job experiment engine: its own observer (so
// job progress and spans are attributable to exactly one job), the
// server-shared report cache, and the requested width. A fresh request
// runs uncached — "fresh" means the pipeline actually executes, not just
// that the disk store is skipped.
func (s *Server) engineFor(req *Request, o *obs.Observer) *experiments.Engine {
	w := req.Workers
	if w == 0 {
		w = s.opts.EngineWorkers
	}
	if w < 1 {
		w = 1
	}
	cache := s.cache
	if req.Fresh {
		cache = nil
	}
	return &experiments.Engine{Workers: w, Cache: cache, Obs: o}
}

// keyFor computes the job's content-addressed store key ("" when the
// request is not cacheable).
func (s *Server) keyFor(eng *experiments.Engine, req Request) (string, bool) {
	switch req.Kind {
	case KindRun:
		return eng.SuiteKey(KindRun, req.Scale, []string{req.App})
	case KindFleet:
		return eng.FleetSuiteKey(req.App, req.Scale, req.Ranks)
	case KindTable1:
		return eng.SuiteKey(KindTable1, req.Scale, nil)
	case KindTable2:
		return eng.SuiteKey(KindTable2, req.Scale, req.Apps)
	case KindAutofix:
		return eng.SuiteKey(KindAutofix, req.Scale, nil)
	}
	return "", false
}
