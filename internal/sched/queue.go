package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diogenes/internal/obs"
)

// Class is a task's admission class. The queue holds one bounded budget
// shared by both classes — admission and backpressure are identical —
// but workers always drain interactive tasks before batch tasks, so a
// short interactive job submitted behind a deep batch backlog starts as
// soon as a worker frees instead of waiting out the bulk work.
type Class int

const (
	// ClassInteractive is the low-latency class: dequeued ahead of any
	// queued batch work. The zero value, so callers that never think
	// about classes get the responsive behavior.
	ClassInteractive Class = iota
	// ClassBatch is the bulk class: dequeued only when no interactive
	// task is waiting.
	ClassBatch
)

// String names the class for task labels and metrics.
func (c Class) String() string {
	if c == ClassBatch {
		return "batch"
	}
	return "interactive"
}

// Queue is the serving counterpart to Pool's batch Run: a long-lived
// bounded task queue draining into a fixed worker set. Pool answers "run
// these N tasks and give me their results"; Queue answers "keep accepting
// tasks until told to stop, refuse new ones the moment the backlog is
// full, and drain everything that was accepted before shutting down".
//
// The explicit rejection signal — TryEnqueue returning false — is the
// queue's whole point: it lets a caller translate a full backlog into
// visible backpressure (an HTTP 429, a retry hint) instead of buffering
// without bound. An accepted task is never dropped: it runs even if the
// queue is closed immediately afterwards, with the same panic containment
// as Pool, and Close blocks until the last accepted task has finished.
//
// Tasks carry a Class; the two classes share the single capacity budget
// (total accepted-but-not-started tasks never exceeds it) but interactive
// tasks preempt queued batch tasks at dequeue time.
type Queue struct {
	interactive chan Task
	batch       chan Task
	capacity    int
	workers     int
	wg          sync.WaitGroup

	// pending counts accepted tasks not yet picked up by a worker —
	// the queue depth. Enqueue and dequeue both move it and publish it to
	// the gauge under mu, so the gauge's last write is always the current
	// count; a write of an older count landing after a newer one would
	// leave the gauge stale after a drain.
	pending atomic.Int64

	mu     sync.Mutex
	closed bool

	// Telemetry (all instruments nil-safe; an unmetered queue pays only
	// nil checks).
	depth    *obs.Gauge
	peak     *obs.Gauge
	accepted *obs.Counter
	rejected *obs.Counter
	finished *obs.Counter
	taskWall *obs.Histogram

	// hookDequeued, when non-nil, is called by a worker after the dequeue
	// accounting and before the task runs — a test seam for freezing the
	// queue at a known depth.
	hookDequeued func(Task)
}

// NewQueue returns a started queue running at most workers tasks
// concurrently and holding at most capacity not-yet-started tasks across
// both admission classes. workers follows New's convention (0 selects
// GOMAXPROCS); capacity must be at least 1. The optional registry
// receives the queue's telemetry: sched/jobqueue_depth,
// sched/jobqueue_depth_peak, sched/jobqueue_accepted,
// sched/jobqueue_rejected, sched/jobqueue_finished and the per-task
// sched/jobqueue_task_wall_ns histogram.
func NewQueue(workers, capacity int, m *obs.Registry) (*Queue, error) {
	if workers < 0 {
		return nil, fmt.Errorf("sched: negative worker count %d", workers)
	}
	if workers == 0 {
		p, _ := New(0)
		workers = p.Workers()
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sched: queue capacity %d, need at least 1", capacity)
	}
	q := &Queue{
		// Each class channel is sized to the full budget so that a send
		// under the admission check can never block, even when every
		// pending task belongs to one class.
		interactive: make(chan Task, capacity),
		batch:       make(chan Task, capacity),
		capacity:    capacity,
		workers:     workers,
		depth:       m.Gauge("sched/jobqueue_depth"),
		peak:        m.Gauge("sched/jobqueue_depth_peak"),
		accepted:    m.Counter("sched/jobqueue_accepted"),
		rejected:    m.Counter("sched/jobqueue_rejected"),
		finished:    m.Counter("sched/jobqueue_finished"),
		taskWall:    m.Histogram("sched/jobqueue_task_wall_ns"),
	}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// worker drains both class channels until they are closed, always
// preferring a waiting interactive task over a waiting batch task.
func (q *Queue) worker() {
	defer q.wg.Done()
	interactive, batch := q.interactive, q.batch
	for interactive != nil || batch != nil {
		var t Task
		got := false
		// Interactive tasks win whenever one is already waiting; the
		// blocking select below is reached only with no interactive
		// backlog.
		if interactive != nil {
			select {
			case it, ok := <-interactive:
				if !ok {
					interactive = nil
					continue
				}
				t, got = it, true
			default:
			}
		}
		if !got {
			select {
			case it, ok := <-interactive:
				if !ok {
					interactive = nil
					continue
				}
				t = it
			case bt, ok := <-batch:
				if !ok {
					batch = nil
					continue
				}
				t = bt
			}
		}
		q.mu.Lock()
		q.depth.Set(float64(q.pending.Add(-1)))
		q.mu.Unlock()
		if h := q.hookDequeued; h != nil {
			h(t)
		}
		start := time.Now()
		// Errors and panics are the task's own business — a serving
		// queue has no batch result slice to report them in, so tasks
		// that care must capture their outcome themselves. The panic
		// containment still matters: one broken job must not take the
		// daemon down.
		_ = runOne(context.Background(), t)
		q.taskWall.Observe(int64(time.Since(start)))
		q.finished.Inc()
	}
}

// TryEnqueue offers a task to the queue under its Class. It returns
// false — the backpressure signal — when the shared backlog budget is
// full or the queue is closed; true means the task was accepted and will
// run.
func (q *Queue) TryEnqueue(t Task) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.rejected.Inc()
		return false
	}
	// Admission is on the combined pending count: workers only ever
	// decrease it, and enqueuers serialize on q.mu, so the check-then-add
	// can never admit past capacity (at worst it rejects a request whose
	// slot freed a moment later — the conservative direction).
	if int(q.pending.Load()) >= q.capacity {
		q.rejected.Inc()
		return false
	}
	ch := q.interactive
	if t.Class == ClassBatch {
		ch = q.batch
	}
	ch <- t // never blocks: each class channel holds the full budget
	d := float64(q.pending.Add(1))
	q.depth.Set(d)
	q.peak.SetMax(d)
	q.accepted.Inc()
	return true
}

// Depth returns the number of accepted tasks not yet picked up by a
// worker, across both classes.
func (q *Queue) Depth() int { return int(q.pending.Load()) }

// Capacity returns the backlog bound shared by both classes.
func (q *Queue) Capacity() int { return q.capacity }

// Workers returns the resolved worker count (after the 0 → GOMAXPROCS
// default).
func (q *Queue) Workers() int { return q.workers }

// Close stops accepting new tasks and blocks until every accepted task
// has finished. It is idempotent and safe to call concurrently with
// TryEnqueue.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.interactive)
		close(q.batch)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
