package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/obs"
)

// Experiment kinds a job may request — the same entry points the CLI
// exposes as subcommands.
const (
	KindRun     = "run"     // full FFM pipeline on one application
	KindReplay  = "replay"  // full FFM pipeline re-driven from a captured trace
	KindFleet   = "fleet"   // all-ranks FFM with cross-rank aggregation
	KindTable1  = "table1"  // estimated vs actual benefit, all applications
	KindTable2  = "table2"  // profiler comparison for selected applications
	KindAutofix = "autofix" // automatic-correction verification table
)

// maxFleetRanks bounds a fleet request's world size. Aggregation streams
// in O(aggregate) memory, so the bound only caps a single submission's
// compute cost (one full pipeline per rank), which the job timeout
// already polices per deployment.
const maxFleetRanks = 1024

// Request is one analysis submission.
type Request struct {
	// Kind selects the experiment: run, replay, fleet, table1, table2 or
	// autofix.
	Kind string `json:"kind"`
	// App names the application for kinds "run" and "fleet" (see
	// `diogenes list`).
	App string `json:"app,omitempty"`
	// Apps selects applications for kind "table2"; empty means all.
	Apps []string `json:"apps,omitempty"`
	// Trace is an inline captured trace document (a `diogenes run
	// -records` export) for kind "replay".
	Trace json.RawMessage `json:"trace,omitempty"`
	// TraceKey addresses the trace of a previously stored "run" result
	// document for kind "replay" (alternative to inlining it).
	TraceKey string `json:"traceKey,omitempty"`
	// Ranks is the world size for kind "fleet"; 0 selects the
	// application's default.
	Ranks int `json:"ranks,omitempty"`
	// Scale is the workload scale; 0 selects 0.25, the CLI default.
	Scale float64 `json:"scale,omitempty"`
	// Workers is the per-job experiment engine width; 0 selects the
	// server default. Results are byte-identical for any width.
	Workers int `json:"workers,omitempty"`
	// TimeoutSeconds caps the job's execution; 0 selects the server
	// default.
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
	// Fresh bypasses the persistent report store, forcing a re-run (the
	// result still overwrites the stored document).
	Fresh bool `json:"fresh,omitempty"`
}

// normalize validates the request and fills defaults in place.
func (r *Request) normalize() error {
	switch r.Kind {
	case KindRun:
		if r.App == "" {
			return fmt.Errorf("kind %q requires \"app\"", r.Kind)
		}
		if _, err := apps.ByName(r.App); err != nil {
			return err
		}
		if len(r.Apps) > 0 {
			return fmt.Errorf("kind %q takes \"app\", not \"apps\"", r.Kind)
		}
	case KindFleet:
		if r.App == "" {
			return fmt.Errorf("kind %q requires \"app\"", r.Kind)
		}
		spec, err := apps.ByName(r.App)
		if err != nil {
			return err
		}
		if spec.MPI == nil {
			return fmt.Errorf("kind %q needs an MPI-modelled application; %s is single-process", r.Kind, r.App)
		}
		if len(r.Apps) > 0 {
			return fmt.Errorf("kind %q takes \"app\", not \"apps\"", r.Kind)
		}
		if r.Ranks < 0 {
			return fmt.Errorf("ranks %d cannot be negative", r.Ranks)
		}
		if r.Ranks > maxFleetRanks {
			return fmt.Errorf("ranks %d exceeds the per-job limit %d", r.Ranks, maxFleetRanks)
		}
	case KindTable2:
		if r.App != "" {
			return fmt.Errorf("kind %q takes \"apps\", not \"app\"", r.Kind)
		}
		if len(r.Apps) == 0 {
			for _, spec := range apps.Registry() {
				r.Apps = append(r.Apps, spec.Name)
			}
		}
		for _, name := range r.Apps {
			if _, err := apps.ByName(name); err != nil {
				return err
			}
		}
	case KindReplay:
		if len(r.Trace) == 0 && r.TraceKey == "" {
			return fmt.Errorf("kind %q requires \"trace\" or \"traceKey\"", r.Kind)
		}
		if len(r.Trace) > 0 && r.TraceKey != "" {
			return fmt.Errorf("kind %q takes \"trace\" or \"traceKey\", not both", r.Kind)
		}
		if r.App != "" || len(r.Apps) > 0 {
			return fmt.Errorf("kind %q replays a captured trace; it takes no \"app\"/\"apps\"", r.Kind)
		}
		if r.Scale != 0 {
			return fmt.Errorf("kind %q takes no \"scale\"; the trace fixes the workload", r.Kind)
		}
	case KindTable1, KindAutofix:
		if r.App != "" || len(r.Apps) > 0 {
			return fmt.Errorf("kind %q runs every application; it takes no \"app\"/\"apps\"", r.Kind)
		}
	case "":
		return fmt.Errorf("\"kind\" is required (run, replay, fleet, table1, table2 or autofix)")
	default:
		return fmt.Errorf("unknown kind %q (want run, replay, fleet, table1, table2 or autofix)", r.Kind)
	}
	if r.Kind != KindReplay && (len(r.Trace) > 0 || r.TraceKey != "") {
		return fmt.Errorf("kind %q takes no \"trace\"/\"traceKey\"", r.Kind)
	}
	if r.Kind != KindFleet && r.Ranks != 0 {
		return fmt.Errorf("kind %q takes no \"ranks\"", r.Kind)
	}
	if r.Scale == 0 && r.Kind != KindReplay {
		r.Scale = 0.25
	}
	if r.Scale < 0 {
		return fmt.Errorf("scale %v must be positive", r.Scale)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers %d cannot be negative", r.Workers)
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("timeoutSeconds %v cannot be negative", r.TimeoutSeconds)
	}
	return nil
}

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are live; the rest are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Job is one accepted analysis request. All fields are guarded: read
// through View or the accessors.
type Job struct {
	// ID is assigned at registration and immutable afterwards.
	ID  string
	Req Request

	obs      *obs.Observer
	ctx      context.Context
	cancelFn context.CancelFunc
	timeout  time.Duration
	storeKey string
	// fleetProgress, set for fleet jobs, reads the engine's live
	// reduction counters so views stream per-rank reduction progress.
	fleetProgress func() (ffm.FleetProgress, bool)

	mu        sync.Mutex
	state     State
	errMsg    string
	fromStore bool
	result    []byte
	created   time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// newJob builds a queued job with its own observer and cancellation
// context.
func newJob(req Request, o *obs.Observer, storeKey string, timeout time.Duration) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		Req:      req,
		obs:      o,
		ctx:      ctx,
		cancelFn: cancel,
		timeout:  timeout,
		storeKey: storeKey,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
}

// cancel signals the job's context; state transitions happen at the
// execution sites that observe it.
func (j *Job) cancel() { j.cancelFn() }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the serialized result document of a done job (nil
// otherwise). Callers must not mutate it.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.result
}

// isFromStore reports whether the job's result was loaded from the
// persistent store rather than rendered by this process.
func (j *Job) isFromStore() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fromStore
}

// setRunning moves queued → running; false means the job already left the
// queued state (e.g. canceled before a worker picked it up).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once; later calls are
// ignored (false).
func (j *Job) finish(st State, errMsg string, result []byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return false
	}
	j.state = st
	j.errMsg = errMsg
	j.result = result
	j.finished = time.Now()
	close(j.done)
	return true
}

// finishIfQueued finishes the job only if it never started.
func (j *Job) finishIfQueued(st State, errMsg string) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	// Worst case a worker dequeues the job between the check and finish;
	// finish is once-only, so either this call or the worker's wins and
	// the other is a no-op.
	return j.finish(st, errMsg, nil)
}

// markFromStore completes a job from the persistent store without it ever
// entering the queue.
func (j *Job) markFromStore(doc []byte) {
	j.mu.Lock()
	j.fromStore = true
	j.mu.Unlock()
	j.finish(StateDone, "", doc)
}

// View is the externally visible job state: identity, lifecycle, and
// progress derived from the job's own span trace (spans recorded by the
// pipeline run; a store- or cache-served job honestly reports zero).
type View struct {
	ID      string   `json:"id"`
	Kind    string   `json:"kind"`
	App     string   `json:"app,omitempty"`
	Apps    []string `json:"apps,omitempty"`
	Ranks   int      `json:"ranks,omitempty"`
	Scale   float64  `json:"scale"`
	Workers int      `json:"workers,omitempty"`

	Status    State  `json:"status"`
	Error     string `json:"error,omitempty"`
	FromStore bool   `json:"fromStore"`
	StoreKey  string `json:"key,omitempty"`

	SpansTotal  int    `json:"spansTotal"`
	SpansEnded  int    `json:"spansEnded"`
	CurrentSpan string `json:"currentSpan,omitempty"`

	// Fleet is the streaming-reduction progress of a fleet job: ranks
	// folded so far and batch partials absorbed, straight from the
	// engine's reduction counters — live while the job runs, final
	// afterwards. Absent for other kinds and for store-served fleet jobs
	// (no reduction ran).
	Fleet *ffm.FleetProgress `json:"fleet,omitempty"`

	CreatedAt  string `json:"createdAt,omitempty"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`
}

// View snapshots the job.
func (j *Job) View() View {
	total, ended, current := j.obs.Trace().Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:      j.ID,
		Kind:    j.Req.Kind,
		App:     j.Req.App,
		Apps:    j.Req.Apps,
		Ranks:   j.Req.Ranks,
		Scale:   j.Req.Scale,
		Workers: j.Req.Workers,

		Status:    j.state,
		Error:     j.errMsg,
		FromStore: j.fromStore,
		StoreKey:  j.storeKey,

		SpansTotal:  total,
		SpansEnded:  ended,
		CurrentSpan: current,

		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.fleetProgress != nil {
		if p, ok := j.fleetProgress(); ok {
			v.Fleet = &p
		}
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// manager is the job registry: ID assignment, lookup, and bounded
// retention of finished records.
type manager struct {
	mu     sync.Mutex
	seq    int
	jobs   map[string]*Job
	order  []string // registration order
	retain int
}

func newManager(retain int) *manager {
	return &manager{jobs: make(map[string]*Job), retain: retain}
}

// add registers the job, assigns its ID, and sheds the oldest finished
// records beyond the retention bound (live jobs are never shed).
func (m *manager) add(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	j.ID = fmt.Sprintf("j%d", m.seq)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	if len(m.jobs) <= m.retain {
		return
	}
	kept := m.order[:0]
	excess := len(m.jobs) - m.retain
	for _, id := range m.order {
		if excess > 0 {
			if old, ok := m.jobs[id]; ok && old.terminal() {
				delete(m.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// remove unregisters a job (enqueue-rejection rollback).
func (m *manager) remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

func (m *manager) get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

func (m *manager) list() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	// m.order is registration order already.
	out := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// terminal reports whether the job has finished (any terminal state).
func (j *Job) terminal() bool {
	switch j.State() {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}
