// Package interpose is the binary-instrumentation layer of the tool: the
// analog of what Diogenes does with Dyninst against libcuda.so.
//
// It provides the three capabilities the FFM stages are built on:
//
//   - Discover: the §3.1 identification test that finds the internal driver
//     function where the CPU actually waits, by launching a never-completing
//     kernel, calling known synchronous API functions, and seeing which
//     wrapped internal function is entered but never exited;
//   - CallTracer: entry/exit tracing of a chosen set of driver functions,
//     producing trace.Records with durations, synchronization waits and call
//     stacks;
//   - RangeTracker: load/store instrumentation over the CPU memory ranges
//     that GPU computation may modify, used by stages 3 and 4 to find the
//     first instruction accessing protected data after a synchronization.
//
// Every capability charges virtual-time overhead per event, so instrumented
// runs are measurably slower than the baseline — the effect §5.3 quantifies
// at 8×–20× across all stages.
package interpose

import (
	"errors"
	"fmt"

	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/obs"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// ErrNoSyncFunction is returned when the discovery test cannot isolate a
// unique blocking internal function.
var ErrNoSyncFunction = errors.New("interpose: discovery found no unique sync function")

// Discover runs the synchronization-function identification test (§3.1):
// "We identify the underlying function that performs the wait by a set of
// simple tests that launches a never completing GPU kernel, calling known
// synchronous functions (such as cuCtxSynchronize) to identify the function
// where the CPU waits."
//
// factory must create a fresh simulated process each call; the test runs
// once per known synchronous API function and intersects the candidates.
// The returned Func is the internal funnel every blocking operation shares.
func Discover(factory func() *cuda.Context) (cuda.Func, error) {
	knownSync := []func(*cuda.Context){
		func(c *cuda.Context) { c.DeviceSynchronize() },
		func(c *cuda.Context) { c.ThreadSynchronize() },
		func(c *cuda.Context) { c.StreamSynchronize(gpu.LegacyStream) },
	}
	survivors := make(map[cuda.Func]int)
	for trial, syncCall := range knownSync {
		stuck, err := runDiscoveryTrial(factory(), syncCall)
		if err != nil {
			return "", err
		}
		for fn := range stuck {
			survivors[fn]++
		}
		// Keep only candidates stuck in every trial so far.
		for fn, n := range survivors {
			if n != trial+1 {
				delete(survivors, fn)
			}
		}
	}
	if len(survivors) != 1 {
		return "", fmt.Errorf("%w: %d candidates survived", ErrNoSyncFunction, len(survivors))
	}
	for fn := range survivors {
		return fn, nil
	}
	panic("unreachable")
}

// runDiscoveryTrial wraps every internal driver function with depth
// counters, launches a kernel that never completes, performs the known
// synchronous call, and reports which internal functions were entered but
// never exited when the watchdog (the recovered HangError) fired.
func runDiscoveryTrial(ctx *cuda.Context, syncCall func(*cuda.Context)) (stuck map[cuda.Func]bool, err error) {
	depth := make(map[cuda.Func]int)
	for _, fn := range cuda.InternalFuncs {
		fn := fn
		ctx.AttachProbe(fn, cuda.Probe{
			Entry: func(*cuda.Call) { depth[fn]++ },
			Exit:  func(*cuda.Call) { depth[fn]-- },
		})
	}
	if _, err := ctx.LaunchKernel(cuda.KernelSpec{
		Name:     "__diogenes_spin_kernel",
		Duration: simtime.Duration(simtime.Infinity),
		Stream:   gpu.LegacyStream,
	}); err != nil {
		return nil, fmt.Errorf("interpose: launching spin kernel: %w", err)
	}
	hung := false
	func() {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(cuda.HangError); ok {
					hung = true
					return
				}
				panic(v)
			}
		}()
		syncCall(ctx)
	}()
	if !hung {
		return nil, fmt.Errorf("interpose: known synchronous call did not block on the spin kernel")
	}
	stuck = make(map[cuda.Func]bool)
	for fn, d := range depth {
		if d > 0 {
			stuck[fn] = true
		}
	}
	return stuck, nil
}

// TracerOptions configures a CallTracer.
type TracerOptions struct {
	// Overhead is the virtual-time cost charged at each probe firing
	// (entry and exit separately), modelling trampoline + snippet cost.
	Overhead simtime.Duration
	// CaptureStacks records a call-stack snapshot per traced operation.
	CaptureStacks bool
	// CapturePayloads hands each transfer's source view to OnRecord in
	// the call's Payload (see cuda.Call.Payload).
	CapturePayloads bool
	// OnRecord, if set, is invoked as each record is appended; the pointer
	// addresses the stored record and stays valid until Records() is
	// called (records live in a per-run arena, so later allocations never
	// relocate them), so annotations written through it persist — even
	// ones written after further calls have been traced, as stage 3's
	// protected-access annotation is.
	OnRecord func(*trace.Record, *cuda.Call)
	// Metrics, if set, receives self-measurement telemetry: probe firings
	// and charged overhead (interpose/probe_firings,
	// interpose/probe_overhead_ns), record counts (interpose/records), and
	// per-call virtual durations (interpose/call_ns, interpose/sync_wait_ns
	// histograms). Purely observational — recording never touches the
	// virtual clock.
	Metrics *obs.Registry
}

// CallTracer performs entry/exit tracing of a set of driver functions
// (stage 2's mechanism). It records one trace.Record per call that either
// synchronized or transferred data; calls that did neither (e.g. a
// cudaMalloc) produce no record, matching §5.2: "Diogenes does not collect
// performance data on calls that do not contain a problematic
// synchronization or memory transfer operation."
type CallTracer struct {
	ctx    *cuda.Context
	opts   TracerOptions
	probes []cuda.ProbeID
	// arena slab-allocates records during the run; Records() flattens it
	// into final exactly once. Slabs are pooled process-wide, so tracing
	// allocates no record memory in steady state.
	arena   *trace.Arena
	final   []trace.Record
	done    bool
	nextSeq int64
	// entryLedger is the instrumentation-overhead ledger at the current
	// call's entry, captured so recorded timestamps can be reported on the
	// application's own (overhead-compensated) timeline. Driver calls do
	// not nest, so a single slot suffices.
	entryLedger simtime.Duration

	// Instrument pointers resolved once at construction (nil-safe no-ops
	// when TracerOptions.Metrics is unset).
	mFirings    *obs.Counter
	mProbeNS    *obs.Counter
	mRecords    *obs.Counter
	mArenaBytes *obs.Gauge
	mCallNS     *obs.Histogram
	mSyncWait   *obs.Histogram
}

// NewCallTracer attaches entry/exit probes to each function in funcs.
func NewCallTracer(ctx *cuda.Context, funcs []cuda.Func, opts TracerOptions) *CallTracer {
	t := &CallTracer{ctx: ctx, opts: opts, arena: trace.NewArena()}
	m := opts.Metrics
	t.mFirings = m.Counter("interpose/probe_firings")
	t.mProbeNS = m.Counter("interpose/probe_overhead_ns")
	t.mRecords = m.Counter("interpose/records")
	t.mArenaBytes = m.Gauge("interpose/arena_bytes")
	t.mCallNS = m.Histogram("interpose/call_ns")
	t.mSyncWait = m.Histogram("interpose/sync_wait_ns")
	if opts.CaptureStacks {
		ctx.SetStackCapture(true)
	}
	if opts.CapturePayloads {
		ctx.SetPayloadCapture(true)
	}
	for _, fn := range funcs {
		id := ctx.AttachProbe(fn, cuda.Probe{
			Overhead: opts.Overhead,
			Entry:    t.onEntry,
			Exit:     t.onExit,
		})
		t.probes = append(t.probes, id)
	}
	return t
}

func (t *CallTracer) onEntry(call *cuda.Call) {
	// The probe's own entry overhead was charged after Call.Entry was
	// stamped; exclude it from the snapshot.
	t.entryLedger = t.ctx.InstrumentationOverhead() - t.opts.Overhead
	t.mFirings.Inc()
	t.mProbeNS.Add(int64(t.opts.Overhead))
}

func (t *CallTracer) onExit(call *cuda.Call) {
	t.mFirings.Inc()
	t.mProbeNS.Add(int64(t.opts.Overhead))
	isTransfer := call.Kind == cuda.KindTransfer
	if !isTransfer && call.Scope == cuda.SyncNone {
		return // neither a synchronization nor a transfer: no data collected
	}
	exitLedger := t.ctx.InstrumentationOverhead() - t.opts.Overhead
	t.nextSeq++
	class := trace.ClassSync
	if isTransfer {
		class = trace.ClassTransfer
	}
	rec := t.arena.Alloc()
	rec.Seq = t.nextSeq
	rec.Func = string(call.Func)
	rec.Class = class
	rec.Entry = call.Entry.Add(-t.entryLedger)
	rec.Exit = call.Exit.Add(-exitLedger)
	rec.SyncWait = call.SyncWait()
	rec.Scope = call.Scope.String()
	rec.Bytes = call.Bytes
	rec.HostAddr = uint64(call.HostAddr)
	rec.HostSize = call.HostSize
	if call.Dir != cuda.DirNone {
		rec.Dir = call.Dir.String()
	}
	if t.opts.CaptureStacks {
		rec.Stack = call.Stack
	}
	t.mRecords.Inc()
	t.mArenaBytes.SetMax(float64(t.arena.Bytes()))
	t.mCallNS.Observe(int64(rec.Exit - rec.Entry))
	t.mSyncWait.Observe(int64(rec.SyncWait))
	if t.opts.OnRecord != nil {
		t.opts.OnRecord(rec, call)
	}
}

// Records returns the collected records in call order. The first call
// flattens the arena into an exact-size slice and recycles the slabs, so
// record pointers handed to OnRecord are invalid afterwards; the returned
// slice is freshly allocated and shares nothing with the pool.
func (t *CallTracer) Records() []trace.Record {
	if !t.done {
		t.final = t.arena.Finish()
		t.done = true
	}
	return t.final
}

// Count returns the number of records collected so far.
func (t *CallTracer) Count() int { return t.arena.Len() + len(t.final) }

// Detach removes the tracer's probes.
func (t *CallTracer) Detach() {
	for _, id := range t.probes {
		t.ctx.DetachProbe(id)
	}
	t.probes = nil
}

// FirstAccess is the observation RangeTracker delivers: the first
// instrumented CPU access to GPU-writable data after the tracker was armed.
type FirstAccess struct {
	Site memory.Site
	At   simtime.Time
	Kind memory.AccessKind
	Addr memory.Addr
}

// RangeTracker maintains the set of CPU memory ranges that GPU computation
// may modify (§3.3.1: the destinations of device-to-host transfers and
// shared/managed allocations) and, when armed, reports the first
// instrumented access to any of them.
type RangeTracker struct {
	host     *memory.Space
	clock    *simtime.Clock
	overhead simtime.Duration
	charge   func(simtime.Duration)
	watches  []memory.WatchID
	covered  []coveredRange
	armed    bool
	onFirst  func(FirstAccess)
	accesses int64
	sites    map[memory.Site]bool

	mAccesses *obs.Counter
	mAccessNS *obs.Counter
}

type coveredRange struct{ lo, hi memory.Addr }

// NewRangeTracker creates a tracker. onFirst is called once per Arm, at the
// first matching access; accessOverhead is charged on *every* watched
// access, armed or not — load/store instrumentation pays its cost
// unconditionally, which is why stage 3 is the most expensive run. When
// charge is non-nil it is used to book the overhead (so it lands on the
// instrumentation ledger); otherwise the clock is advanced directly.
func NewRangeTracker(host *memory.Space, clock *simtime.Clock, accessOverhead simtime.Duration, onFirst func(FirstAccess)) *RangeTracker {
	return &RangeTracker{host: host, clock: clock, overhead: accessOverhead, onFirst: onFirst}
}

// SetCharger routes overhead charges through fn (normally
// cuda.Context.ChargeOverhead) instead of plain clock advances.
func (rt *RangeTracker) SetCharger(fn func(simtime.Duration)) { rt.charge = fn }

// SetMetrics attaches self-measurement counters for watched accesses
// (interpose/accesses) and the virtual time their instrumentation charged
// (interpose/access_overhead_ns). A nil registry detaches.
func (rt *RangeTracker) SetMetrics(m *obs.Registry) {
	rt.mAccesses = m.Counter("interpose/accesses")
	rt.mAccessNS = m.Counter("interpose/access_overhead_ns")
}

// AddRange registers [lo, hi) as GPU-writable and instruments accesses to
// it. Ranges already covered are ignored — applications re-transfer into
// the same buffers millions of times, and instrumenting a page once is
// enough (re-instrumenting it per transfer would also multiply the
// per-access cost, which binary instrumentation does not do).
func (rt *RangeTracker) AddRange(lo, hi memory.Addr) {
	for _, c := range rt.covered {
		if lo >= c.lo && hi <= c.hi {
			return
		}
	}
	rt.covered = append(rt.covered, coveredRange{lo: lo, hi: hi})
	id := rt.host.Watch(lo, hi, rt.onAccess)
	rt.watches = append(rt.watches, id)
}

// FilterSites restricts the tracker to accesses from the given instruction
// sites. Stage 4 instruments only the instructions stage 3 identified as
// accessing protected data (§3.4), so its per-access cost applies to those
// sites alone.
func (rt *RangeTracker) FilterSites(sites map[memory.Site]bool) { rt.sites = sites }

func (rt *RangeTracker) onAccess(a memory.Access) {
	if rt.sites != nil && !rt.sites[a.Site] {
		return
	}
	rt.accesses++
	rt.mAccesses.Inc()
	rt.mAccessNS.Add(int64(rt.overhead))
	if rt.overhead > 0 {
		if rt.charge != nil {
			rt.charge(rt.overhead)
		} else {
			rt.clock.Advance(rt.overhead)
		}
	}
	if !rt.armed {
		return
	}
	rt.armed = false
	if rt.onFirst != nil {
		rt.onFirst(FirstAccess{Site: a.Site, At: rt.clock.Now(), Kind: a.Kind, Addr: a.Addr})
	}
}

// Arm makes the next access to any tracked range fire the onFirst callback.
// Arming while already armed re-arms (the previous synchronization saw no
// access, i.e. its protected data was never used).
func (rt *RangeTracker) Arm() { rt.armed = true }

// Disarm cancels a pending Arm.
func (rt *RangeTracker) Disarm() { rt.armed = false }

// Armed reports whether the tracker is waiting for an access.
func (rt *RangeTracker) Armed() bool { return rt.armed }

// Accesses returns how many watched accesses were observed in total.
func (rt *RangeTracker) Accesses() int64 { return rt.accesses }

// RangeCount returns the number of instrumented ranges.
func (rt *RangeTracker) RangeCount() int { return len(rt.watches) }

// Detach removes all watchers.
func (rt *RangeTracker) Detach() {
	for _, id := range rt.watches {
		rt.host.Unwatch(id)
	}
	rt.watches = nil
	rt.armed = false
}
