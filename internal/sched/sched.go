// Package sched is the execution engine behind the tool's parallel paths: a
// bounded worker pool with first-error cancellation, panic containment and
// per-task timing.
//
// The FFM pipeline and the evaluation suites are embarrassingly parallel at
// two levels — collection stages that depend only on the stage-1 baseline,
// and experiment applications that share nothing at all — but correctness
// demands more than `go` statements: a failing task must stop work that is
// no longer needed, a panicking task must not take the process down, and
// results must come back in a deterministic order regardless of which
// worker finished first. Pool provides exactly that contract; every
// simulated run stays deterministic because each task executes the target
// application in its own fresh process on its own virtual clock.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diogenes/internal/obs"
)

// Task is one unit of work submitted to a Pool.
type Task struct {
	// Name labels the task in errors and results.
	Name string
	// Class is the admission class a Queue dequeues the task under; the
	// zero value is ClassInteractive. Pool ignores it (a batch Run is all
	// one class by construction).
	Class Class
	// Fn does the work. It should honour ctx cancellation promptly if it
	// is long-running, but the pool does not require it: cancellation only
	// prevents *unstarted* tasks from running.
	Fn func(ctx context.Context) error
}

// Result reports one task's outcome. Results are returned in submission
// order, independent of the order workers finished in. Per-task wall-clock
// timing is not part of the result: it is published to the pool's metrics
// registry (SetMetrics) as the sched/task_wall_ns histogram, where the
// utilization accounting actually consumes it.
type Result struct {
	Name string
	// Err is nil on success, the task's own error, a *PanicError if the
	// task panicked, or an error wrapping ErrSkipped if an earlier failure
	// cancelled the run before the task started.
	Err error
}

// ErrSkipped marks tasks that never started because the run was cancelled
// by an earlier failure.
var ErrSkipped = errors.New("sched: task skipped after cancellation")

// PanicError is the error reported for a task whose Fn panicked. The pool
// contains the panic instead of crashing the process: the experiment
// suites run many independent pipelines, and one broken workload must not
// destroy the results of the others.
type PanicError struct {
	Task  string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %q panicked: %v", e.Task, e.Value)
}

// Pool is a bounded worker pool. The zero value is not usable; call New.
// A Pool is stateless between Run calls and safe for concurrent use.
type Pool struct {
	workers int
	metrics *obs.Registry
}

// New returns a pool running at most workers tasks concurrently.
// workers == 0 selects GOMAXPROCS; negative counts are rejected.
func New(workers int) (*Pool, error) {
	if workers < 0 {
		return nil, fmt.Errorf("sched: negative worker count %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}, nil
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetMetrics attaches a metrics registry to the pool. Every subsequent Run
// publishes scheduler telemetry there: per-task wall timing
// (sched/task_wall_ns), task outcome counters (sched/tasks_run,
// sched/tasks_failed, sched/tasks_skipped), queue depth
// (sched/queue_depth, sched/queue_depth_peak) and worker utilization
// (sched/utilization_pct, busy time over workers × run wall time). All of
// it is wall-clock diagnostic data — simulation results never depend on
// it. A nil registry disables publication.
func (p *Pool) SetMetrics(m *obs.Registry) { p.metrics = m }

// Run executes the tasks on the pool's workers and blocks until every
// started task has finished. The first failure (error or panic) cancels the
// run: tasks not yet started are skipped and reported with ErrSkipped.
// Results come back in submission order; the returned error is that of the
// earliest failed task in submission order, or nil if every task that ran
// succeeded. The earliest failing task is never skipped (every task
// dequeued before it succeeded), so for deterministic tasks the returned
// error is the same at every width and whichever task finished first.
//
// A nil ctx is treated as context.Background.
func (p *Pool) Run(ctx context.Context, tasks ...Task) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i].Name = t.Name
	}

	indexes := make(chan int, len(tasks))
	for i := range tasks {
		indexes <- i
	}
	close(indexes)

	workers := p.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// Scheduler telemetry. All instruments are nil-safe, so an unmetered
	// pool pays only nil checks.
	m := p.metrics
	var (
		taskWall    = m.Histogram("sched/task_wall_ns")
		tasksRun    = m.Counter("sched/tasks_run")
		tasksFailed = m.Counter("sched/tasks_failed")
		tasksSkip   = m.Counter("sched/tasks_skipped")
		queueDepth  = m.Gauge("sched/queue_depth")
		queuePeak   = m.Gauge("sched/queue_depth_peak")
		utilization = m.Gauge("sched/utilization_pct")
		busyNS      atomic.Int64
		runStart    = time.Now()
		pending     atomic.Int64
	)
	pending.Store(int64(len(tasks)))
	queuePeak.SetMax(float64(len(tasks)))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				queueDepth.Set(float64(pending.Add(-1)))
				if err := runCtx.Err(); err != nil {
					results[i].Err = fmt.Errorf("%w (task %q): %w", ErrSkipped, tasks[i].Name, context.Cause(runCtx))
					tasksSkip.Inc()
					continue
				}
				start := time.Now()
				results[i].Err = runOne(runCtx, tasks[i])
				elapsed := time.Since(start)
				busyNS.Add(int64(elapsed))
				taskWall.Observe(int64(elapsed))
				tasksRun.Inc()
				if results[i].Err != nil {
					tasksFailed.Inc()
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if wall := time.Since(runStart); wall > 0 && workers > 0 {
		utilization.Set(100 * float64(busyNS.Load()) / (float64(wall) * float64(workers)))
	}
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrSkipped) {
			return results, r.Err
		}
	}
	return results, nil
}

// runOne executes a single task, converting a panic into a *PanicError.
// It is shared by the batch Pool and the serving Queue.
func runOne(ctx context.Context, t Task) (err error) {
	if t.Fn == nil {
		return fmt.Errorf("sched: task %q has no function", t.Name)
	}
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Task: t.Name, Value: v, Stack: buf}
		}
	}()
	return t.Fn(ctx)
}

// GoMetrics runs fns as anonymous tasks on a throwaway pool of the given
// width and returns Run's error — the fire-and-join convenience for
// callers that need structured results no finer than "did everything
// succeed". Width 1 runs fns in order and stops at the first failure, so
// serial and overlapped sections share one code path (the FFM stage
// chains, the benefit measurement pair). The registry, when non-nil,
// receives the same scheduler telemetry as the experiment suites.
func GoMetrics(ctx context.Context, workers int, m *obs.Registry, fns ...func(ctx context.Context) error) error {
	pool, err := New(workers)
	if err != nil {
		return err
	}
	pool.SetMetrics(m)
	tasks := make([]Task, len(fns))
	for i, fn := range fns {
		tasks[i] = Task{Name: fmt.Sprintf("task-%d", i), Fn: fn}
	}
	_, err = pool.Run(ctx, tasks...)
	return err
}
