// Package obs is the tool's self-measurement layer: hierarchical pipeline
// spans, a metrics registry, and a self-overhead report, built with no
// dependencies beyond the standard library and the virtual clock.
//
// Diogenes' core claim is honesty — a measurement tool must account for its
// own perturbation (§5.3) — yet a tool that cannot see inside itself cannot
// make that accounting. This package gives every layer of the pipeline a
// place to record what it did and what it cost:
//
//   - Spans form a tree (run → stage → app-process → driver-call batches)
//     with two time attributions per node: virtual time, taken from the
//     simulated clocks and therefore byte-identical between serial and
//     parallel executions, and wall time, which is diagnostic only. Spans
//     export as Chrome trace_event JSON (loadable in Perfetto or
//     chrome://tracing) and as an indented plain-text summary.
//   - The Registry holds counters, gauges and fixed log-scale-bucket
//     histograms, safe for concurrent update, capturing probe overhead from
//     interpose, sync waits from the driver, scheduler utilization, and
//     report-cache traffic.
//   - SelfOverhead compares each instrumented stage against the
//     uninstrumented reference run, quantifying the tool's own perturbation
//     the way §5.3 reports the 8×–20× collection cost.
//
// Everything is nil-safe: a nil *Observer, *Span or *Registry accepts every
// call as a no-op, so instrumentation sites need no conditionals and an
// un-observed pipeline pays only a nil check.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"diogenes/internal/simtime"
)

// Observer bundles the three self-measurement products — the span trace,
// the metrics registry, and the per-application self-overhead reports —
// into the single handle the pipeline threads through.
type Observer struct {
	trace   *Trace
	metrics *Registry

	mu        sync.Mutex
	overheads []*SelfOverhead
}

// New returns an observer with an empty trace rooted at name and a fresh
// metrics registry.
func New(name string) *Observer {
	return &Observer{trace: NewTrace(name), metrics: NewRegistry()}
}

// Trace returns the span trace (nil for a nil observer).
func (o *Observer) Trace() *Trace {
	if o == nil {
		return nil
	}
	return o.trace
}

// Metrics returns the metrics registry (nil for a nil observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Root returns the root span (nil for a nil observer).
func (o *Observer) Root() *Span { return o.Trace().Root() }

// AddSelfOverhead records one application's self-overhead report.
func (o *Observer) AddSelfOverhead(so *SelfOverhead) {
	if o == nil || so == nil {
		return
	}
	o.mu.Lock()
	o.overheads = append(o.overheads, so)
	o.mu.Unlock()
}

// SelfOverheads returns the recorded reports sorted by application name —
// a deterministic order regardless of which pipeline finished first.
func (o *Observer) SelfOverheads() []*SelfOverhead {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := append([]*SelfOverhead(nil), o.overheads...)
	o.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Empty reports whether the observer recorded nothing: no spans, no
// metrics, no overhead reports.
func (o *Observer) Empty() bool {
	if o == nil {
		return true
	}
	o.mu.Lock()
	n := len(o.overheads)
	o.mu.Unlock()
	return n == 0 && len(o.Root().Children()) == 0 && o.metrics.Empty()
}

// Trace is a tree of spans guarded by one mutex, so spans may be created
// and annotated from concurrently executing pipeline stages.
type Trace struct {
	mu       sync.Mutex
	root     *Span
	watchers []chan struct{}
}

// Watch subscribes to trace changes: the returned channel receives a
// signal whenever a span is created or ended. Signals are coalesced — the
// channel holds at most one pending signal, so a receiver that falls
// behind sees "something changed since my last look", not every
// individual event. This is what a live progress streamer needs: wake up,
// snapshot Progress(), go back to sleep. cancel unsubscribes; it is
// idempotent. Watch on a nil trace returns a nil channel (which blocks
// forever) and a no-op cancel, so un-observed pipelines cost nothing.
func (t *Trace) Watch() (ch <-chan struct{}, cancel func()) {
	if t == nil {
		return nil, func() {}
	}
	c := make(chan struct{}, 1)
	t.mu.Lock()
	t.watchers = append(t.watchers, c)
	t.mu.Unlock()
	return c, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, w := range t.watchers {
			if w == c {
				t.watchers = append(t.watchers[:i], t.watchers[i+1:]...)
				return
			}
		}
	}
}

// notifyLocked signals every watcher without blocking; t.mu must be held.
func (t *Trace) notifyLocked() {
	for _, w := range t.watchers {
		select {
		case w <- struct{}{}:
		default: // a signal is already pending; coalesce
		}
	}
}

// NewTrace returns a trace whose root span carries the given name.
func NewTrace(name string) *Trace {
	t := &Trace{}
	t.root = &Span{t: t, name: name, cat: "trace", wallStart: time.Now()}
	return t
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one node of the trace: a named piece of pipeline work with a
// virtual-time extent and a diagnostic wall-time extent.
//
// Virtual placement is decided at export time, not at creation time: the
// children of a span are laid out in (order, name) sequence, each starting
// where the previous one ended, unless a child carries an explicit virtual
// offset (SetOffset), in which case it is pinned relative to its parent's
// start and does not advance the sequential cursor. Creation order —
// which *does* vary between serial and parallel executions — never
// influences the export, which is what makes the trace byte-identical
// across worker counts. Wiring code must give siblings distinct
// (order, name) pairs.
type Span struct {
	t *Trace

	name  string
	cat   string
	order int
	row   int // 0 = inherit the parent's trace row (tid)

	vdur   simtime.Duration
	voff   simtime.Duration
	hasOff bool

	wallStart time.Time
	wall      time.Duration

	args     map[string]string
	children []*Span
}

// Child creates a child span. Order is the deterministic sort key among
// siblings; cat is the Chrome trace category. Child on a nil span returns
// nil, so an un-observed pipeline can build its whole "tree" for free.
func (s *Span) Child(order int, cat, name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, name: name, cat: cat, order: order, wallStart: time.Now()}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.notifyLocked()
	s.t.mu.Unlock()
	return c
}

// End stamps the span's wall-time duration (time since creation). Calling
// End twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.wall == 0 {
		s.wall = time.Since(s.wallStart)
		s.t.notifyLocked()
	}
	s.t.mu.Unlock()
}

// SetVirtual sets the span's virtual-time duration.
func (s *Span) SetVirtual(d simtime.Duration) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.vdur = d
	s.t.mu.Unlock()
}

// SetOffset pins the span at a virtual offset from its parent's start
// instead of the sequential layout position.
func (s *Span) SetOffset(off simtime.Duration) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.voff = off
	s.hasOff = true
	s.t.mu.Unlock()
}

// SetRow places the span (and, by inheritance, its children) on a separate
// trace row — Chrome renders each row as one tid lane. Row 0 inherits the
// parent's lane; GPU streams use rows so device work can overlap the CPU
// pipeline lane.
func (s *Span) SetRow(row int) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.row = row
	s.t.mu.Unlock()
}

// SetArg attaches a key/value annotation. Values are canonicalized to
// strings immediately so the export is deterministic.
func (s *Span) SetArg(key string, value any) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]string)
	}
	s.args[key] = formatArg(value)
	s.t.mu.Unlock()
}

func formatArg(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case simtime.Duration:
		return x.String()
	case simtime.Time:
		return x.String()
	case time.Duration:
		return x.String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the stamped wall-time duration.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.wall
}

// Children returns a copy of the child list in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Virtual returns the span's effective virtual duration: the explicit
// SetVirtual value if any, otherwise the extent of its laid-out children.
func (s *Span) Virtual() simtime.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.virtualLocked()
}

// virtualLocked computes the effective virtual duration with t.mu held.
func (s *Span) virtualLocked() simtime.Duration {
	var seq, pinned simtime.Duration
	for _, c := range s.children {
		cd := c.virtualLocked()
		if c.hasOff {
			if end := c.voff + cd; end > pinned {
				pinned = end
			}
		} else {
			seq += cd
		}
	}
	d := s.vdur
	if seq > d {
		d = seq
	}
	if pinned > d {
		d = pinned
	}
	return d
}

// sortedChildrenLocked returns the children in deterministic (order, name)
// sequence; t.mu must be held.
func (s *Span) sortedChildrenLocked() []*Span {
	out := append([]*Span(nil), s.children...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].order != out[j].order {
			return out[i].order < out[j].order
		}
		return out[i].name < out[j].name
	})
	return out
}
