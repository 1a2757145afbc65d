// Trace replay: re-driving the simulator from a captured trace.Run.
//
// A Diogenes trace records every synchronizing or transferring driver call
// with overhead-compensated timestamps, measured sync waits, transfer
// payload digests, and call stacks. ReplayApp turns such a document back
// into a proc.App: it paces the CPU to each record's entry time, re-issues
// the recorded driver call under the reconstructed call stack, and — since
// kernel launches are never recorded (they do not synchronize, §5.2) —
// re-creates the device-side occupancy behind each recorded wait with
// synthetic pacing kernels sized so the replayed synchronization waits
// exactly as long as the original did.
//
// Payloads are re-synthesized from the recorded content digests through a
// deterministic digest→bytes expander: equal digests expand to equal bytes,
// so stage 3's duplicate-transfer detection fires on the same records as in
// the original run (the bytes themselves differ — digests are not
// invertible — but the duplicate structure is preserved).
//
// The driving invariant is that every pacing decision (whether to launch a
// kernel, on which stream) depends only on the trace and the simulator
// configuration, never on the instrumentation ledger; only kernel durations
// and CPU pads adapt to the per-stage overhead. That is what lets one
// ReplayApp reproduce the original timeline under every FFM collection
// stage, and hence reproduce the original analysis byte for byte.
package apps

import (
	"fmt"
	"hash/fnv"
	"sort"

	"diogenes/internal/callstack"
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// MaxReplayBytes caps the size of any single replayed transfer. Traces are
// validated against it before any simulator state is touched, so a
// hostile document cannot force multi-gigabyte staging allocations.
const MaxReplayBytes = 64 << 20

// ReplayError reports why a trace cannot be replayed. Seq is the offending
// record's sequence number, or 0 for trace-level problems.
type ReplayError struct {
	Seq    int64
	Reason string
}

// Error implements error.
func (e *ReplayError) Error() string {
	if e.Seq != 0 {
		return fmt.Sprintf("replay: record %d: %s", e.Seq, e.Reason)
	}
	return fmt.Sprintf("replay: %s", e.Reason)
}

// ReplayApp re-drives the simulator from a captured trace. The Run method
// is safe to invoke concurrently on distinct processes, which is how
// ffm.Run's parallel collection stages use it.
type ReplayApp struct {
	Trace *trace.Run
}

// Name reports the replayed application's own name: the analysis of a
// faithful replay is byte-identical to the original's, headline included.
func (a *ReplayApp) Name() string {
	if a.Trace != nil && a.Trace.App != "" {
		return a.Trace.App
	}
	return "replay"
}

// replayOp is the dispatch class of one record.
type replayOp uint8

const (
	opMemcpyH2D replayOp = iota
	opMemcpyD2H
	opMemcpyD2D
	opAsyncH2D
	opAsyncD2HPinned
	opAsyncD2HPageable
	opMemsetDev
	opMemsetManaged
	opMemcpyPeer
	opFree
	opDeviceSync
	opThreadSync
	opStreamSync
	opGemm
	opPrivateD2H
)

// classify maps a record to its dispatch class from the function name,
// transfer direction, and sync scope — the trace has no opcode field.
func classify(rec *trace.Record) (replayOp, error) {
	switch rec.Func {
	case string(cuda.FuncMemcpy):
		switch rec.Dir {
		case "HtoD":
			return opMemcpyH2D, nil
		case "DtoH":
			return opMemcpyD2H, nil
		case "DtoD":
			return opMemcpyD2D, nil
		}
		return 0, &ReplayError{Seq: rec.Seq, Reason: fmt.Sprintf("cudaMemcpy with direction %q", rec.Dir)}
	case string(cuda.FuncMemcpyAsync):
		switch {
		case rec.Dir == "HtoD":
			return opAsyncH2D, nil
		case rec.Dir == "DtoH" && rec.Scope == "conditional":
			return opAsyncD2HPageable, nil
		case rec.Dir == "DtoH":
			return opAsyncD2HPinned, nil
		}
		return 0, &ReplayError{Seq: rec.Seq, Reason: fmt.Sprintf("cudaMemcpyAsync with direction %q", rec.Dir)}
	case string(cuda.FuncMemset):
		if rec.Scope == "conditional" {
			return opMemsetManaged, nil
		}
		return opMemsetDev, nil
	case string(cuda.FuncMemcpyPeer):
		return opMemcpyPeer, nil
	case string(cuda.FuncFree):
		return opFree, nil
	case string(cuda.FuncDeviceSync):
		return opDeviceSync, nil
	case string(cuda.FuncThreadSync):
		return opThreadSync, nil
	case string(cuda.FuncStreamSync):
		return opStreamSync, nil
	case string(cuda.FuncPrivateGemm):
		return opGemm, nil
	case string(cuda.FuncPrivateMemcpy):
		return opPrivateD2H, nil
	}
	return 0, &ReplayError{Seq: rec.Seq, Reason: fmt.Sprintf("%q is not a replayable function", rec.Func)}
}

// expandPayload deterministically re-synthesizes a transfer payload from
// its recorded digest: equal digests yield equal bytes. Records without a
// digest (pre-stage-3 traces) expand from their sequence number instead, so
// they never alias each other into spurious duplicates.
func expandPayload(hash string, seq int64, n int) []byte {
	if n <= 0 {
		return nil
	}
	var seed uint64
	if hash == "" {
		seed = 0x9e3779b97f4a7c15 ^ uint64(seq)
	} else {
		h := fnv.New64a()
		h.Write([]byte(hash))
		seed = h.Sum64()
	}
	p := make([]byte, n)
	simtime.NewRNG(seed).Bytes(p)
	return p
}

// replayEvent is one scheduled action: a record issue at its entry time, or
// a first-use memory access at exit+firstUse. Times are compensated.
type replayEvent struct {
	at     simtime.Time
	access bool
	idx    int
}

// replayState is the per-run working set: the reusable buffers the recorded
// transfers are re-driven through, and the streams that carry pacing
// kernels. All of it is allocated before the first record and reused, so
// replay cost stays flat in trace length.
type replayState struct {
	p   *proc.Process
	run *trace.Run
	ops []replayOp

	gcfg gpu.Config
	ccfg cuda.Config

	staging  *memory.Region // pageable source of H2D uploads
	pageable *memory.Region // pageable destination of synchronizing readbacks
	pinned   *memory.Region // pinned destination of truly-async readbacks
	managed  *memory.Region // unified-memory target of managed memsets

	devSrc *gpu.DevBuf // device source of readbacks and D2D copies
	devDst *gpu.DevBuf // device destination of uploads, D2D copies, memsets
	peer   *gpu.DevBuf // destination on device 1 for peer copies

	freeBufs []*gpu.DevBuf // one scratch allocation per recorded cudaFree
	nextFree int

	// Pacing kernels for legacy-queue and device-wide waits can ride any
	// stream (the legacy queue fences against all of them); conditional
	// async readbacks are delayed only by their own stream, so their pacing
	// kernels must share it.
	kernelStream gpu.StreamID
	condStream   gpu.StreamID
	gemmStream   gpu.StreamID
	asyncStreams []gpu.StreamID
	nextAsync    int

	lastWatched *memory.Region // most recent GPU-writable host region
}

// maxAsyncStreams bounds the round-robin pool truly-async copies are spread
// over: enough that realistic replays never serialize copies the original
// overlapped, without paying per-record stream-creation cost.
const maxAsyncStreams = 8

// Run implements proc.App.
func (a *ReplayApp) Run(p *proc.Process) error {
	run := a.Trace
	if run == nil {
		return &ReplayError{Reason: "no trace attached"}
	}
	if err := run.Validate(); err != nil {
		return err
	}
	st, err := newReplayState(p, run)
	if err != nil {
		return err
	}

	events := make([]replayEvent, 0, len(run.Records))
	for i := range run.Records {
		rec := &run.Records[i]
		events = append(events, replayEvent{at: rec.Entry, idx: i})
		if rec.ProtectedAccess {
			events = append(events, replayEvent{at: rec.Exit.Add(rec.FirstUse), access: true, idx: i})
		}
	}
	// Accesses sort before calls at the same instant: in the original run
	// the use happened in application code, i.e. before the next call began.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at.Before(events[j].at)
		}
		return events[i].access && !events[j].access
	})

	for _, ev := range events {
		rec := &run.Records[ev.idx]
		if ev.access {
			st.replayAccess(rec)
			continue
		}
		if err := st.replayRecord(rec, st.ops[ev.idx]); err != nil {
			return err
		}
	}

	// Pace out the tail so the replayed compensated execution time matches
	// the original's.
	st.padTo(simtime.Time(0).Add(run.ExecTime).Add(p.Ctx.InstrumentationOverhead()))
	return nil
}

// newReplayState scans the trace, rejects anything unreplayable, and builds
// exactly the buffers and streams the records will need. Every decision
// here depends only on the trace and the configuration, so each collection
// stage sets up an identical environment.
func newReplayState(p *proc.Process, run *trace.Run) (*replayState, error) {
	st := &replayState{
		p:    p,
		run:  run,
		ops:  make([]replayOp, len(run.Records)),
		gcfg: p.Dev.Config(),
		ccfg: p.Ctx.Config(),
	}
	var (
		maxStaging, maxPageable, maxPinned, maxManaged, maxDev int
		freeCount, asyncCount                                  int
		needKernel, needCond, needGemm, needPeer               bool
	)
	for i := range run.Records {
		rec := &run.Records[i]
		op, err := classify(rec)
		if err != nil {
			return nil, err
		}
		st.ops[i] = op
		if rec.Bytes > MaxReplayBytes {
			return nil, &ReplayError{Seq: rec.Seq, Reason: fmt.Sprintf("transfer of %d bytes exceeds the %d-byte replay limit", rec.Bytes, MaxReplayBytes)}
		}
		grow := func(m *int) {
			if rec.Bytes > *m {
				*m = rec.Bytes
			}
		}
		switch op {
		case opMemcpyH2D, opAsyncH2D:
			grow(&maxStaging)
			grow(&maxDev)
		case opMemcpyD2H, opPrivateD2H, opAsyncD2HPageable:
			grow(&maxPageable)
			grow(&maxDev)
		case opAsyncD2HPinned:
			grow(&maxPinned)
			grow(&maxDev)
		case opMemcpyD2D, opMemsetDev, opMemcpyPeer:
			grow(&maxDev)
		case opMemsetManaged:
			grow(&maxManaged)
		}
		switch op {
		case opAsyncH2D, opAsyncD2HPinned:
			asyncCount++
		case opAsyncD2HPageable:
			needCond = true
		case opGemm:
			needGemm = true
		case opFree:
			freeCount++
		case opMemcpyPeer:
			needPeer = true
		case opStreamSync:
			needKernel = true
		}
		if rec.SyncWait > 0 && op != opGemm && op != opAsyncD2HPageable {
			needKernel = true
		}
	}

	// Host and device working memory is carved out without touching the
	// clock (only driver API calls cost simulated time), so an arbitrarily
	// allocation-heavy trace replays from a compact, constant-cost setup.
	nz := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	st.staging = p.Host.Alloc(nz(maxStaging), "replay staging")
	st.pageable = p.Host.Alloc(nz(maxPageable), "replay readback")
	var err error
	if st.devSrc, err = p.Dev.Malloc(nz(maxDev), "replay dev src"); err != nil {
		return nil, err
	}
	if st.devDst, err = p.Dev.Malloc(nz(maxDev), "replay dev dst"); err != nil {
		return nil, err
	}
	if needPeer && len(p.Devs) > 1 {
		if st.peer, err = p.Devs[1].Malloc(nz(maxDev), "replay peer dst"); err != nil {
			return nil, err
		}
	}
	st.freeBufs = make([]*gpu.DevBuf, freeCount)
	for i := range st.freeBufs {
		if st.freeBufs[i], err = p.Dev.Malloc(64, "replay free scratch"); err != nil {
			return nil, err
		}
	}

	// The few setup steps that do cost simulated time run through the
	// driver API, in a fixed order, only when the trace needs them; the pad
	// before the first record absorbs the cost.
	if needKernel {
		st.kernelStream = p.Ctx.StreamCreate()
	}
	if needCond {
		st.condStream = p.Ctx.StreamCreate()
	}
	if needGemm {
		st.gemmStream = p.Ctx.StreamCreate()
	}
	if n := asyncCount; n > 0 {
		if n > maxAsyncStreams {
			n = maxAsyncStreams
		}
		st.asyncStreams = make([]gpu.StreamID, n)
		for i := range st.asyncStreams {
			st.asyncStreams[i] = p.Ctx.StreamCreate()
		}
	}
	if maxPinned > 0 {
		st.pinned = p.Ctx.MallocHost(maxPinned, "replay pinned readback")
	}
	if maxManaged > 0 {
		if st.managed, err = p.Ctx.MallocManaged(maxManaged, "replay managed"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// padTo advances the CPU to an absolute instant, if it is still ahead.
func (st *replayState) padTo(t simtime.Time) {
	if pad := t.Sub(st.p.Clock.Now()); pad > 0 {
		st.p.CPUWork(pad)
	}
}

// inStack re-establishes a recorded call stack (innermost-first in the
// trace) around body, so the replayed record carries the original frames.
func (st *replayState) inStack(frames callstack.Trace, body func()) {
	var walk func(i int)
	walk = func(i int) {
		if i < 0 {
			body()
			return
		}
		f := frames[i]
		st.p.In(f.Function, f.File, f.Line, func() { walk(i - 1) })
	}
	walk(len(frames) - 1)
}

// replayRecord re-issues one recorded driver call: stage its payload, plant
// the pacing kernel that reproduces the recorded wait, pace the CPU to the
// recorded entry instant, then make the call under the recorded stack. A
// timing-only process stages no payload bytes; the staging ranges are
// still checked.
func (st *replayState) replayRecord(rec *trace.Record, op replayOp) error {
	var err error
	switch payload := max(rec.Bytes, 0); op {
	case opMemcpyH2D, opAsyncH2D:
		if st.p.Content() {
			err = st.p.Host.Poke(st.staging.Base(), expandPayload(rec.Hash, rec.Seq, payload))
		} else {
			err = st.p.Host.PokeN(st.staging.Base(), payload)
		}
	case opMemcpyD2H, opAsyncD2HPinned, opAsyncD2HPageable, opPrivateD2H:
		if st.p.Content() {
			err = st.p.Dev.DevWrite(st.devSrc.Base(), expandPayload(rec.Hash, rec.Seq, payload))
		} else {
			err = st.p.Dev.DevWriteN(st.devSrc.Base(), payload)
		}
	}
	if err != nil {
		return err
	}
	if err := st.pacingKernel(rec, op); err != nil {
		return err
	}
	st.padTo(rec.Entry.Add(st.p.Ctx.InstrumentationOverhead()))
	var callErr error
	st.inStack(rec.Stack, func() { callErr = st.issue(rec, op) })
	return callErr
}

// pacingKernel reproduces the device-side occupancy behind a recorded
// synchronization wait. Each synchronizing call has a structural minimum
// wait — what its own enqueued work costs on an idle device. Any recorded
// wait beyond that minimum came from kernels the original application had
// in flight, which the trace does not record; a synthetic kernel is sized
// so the replayed call's wait ends exactly at syncStart + SyncWait.
//
// Whether a kernel is launched depends only on the recorded wait and the
// device/driver configuration — never on the instrumentation ledger — so
// every collection stage makes identical launch decisions and only the
// kernel duration adapts to that stage's overhead.
func (st *replayState) pacingKernel(rec *trace.Record, op replayOp) error {
	w := rec.SyncWait
	if w <= 0 {
		return nil
	}
	cd := st.p.Dev.CopyDuration
	var (
		stream gpu.StreamID = st.kernelStream
		wmin   simtime.Duration
		endOff simtime.Duration // device work between kernel end and sync end
		setup  simtime.Duration // CPU cost between call entry and sync start
	)
	switch op {
	case opDeviceSync, opThreadSync, opFree, opStreamSync:
		// Pure waits: the kernel end is the sync end.
	case opMemcpyH2D:
		d := cd(gpu.OpCopyH2D, rec.Bytes)
		wmin, endOff, setup = st.gcfg.CopyLatency/2+d, d, st.ccfg.MemcpySetupCost
	case opMemcpyD2H, opPrivateD2H:
		d := cd(gpu.OpCopyD2H, rec.Bytes)
		wmin, endOff, setup = st.gcfg.CopyLatency/2+d, d, st.ccfg.MemcpySetupCost
	case opMemcpyD2D:
		d := cd(gpu.OpCopyD2D, rec.Bytes)
		wmin, endOff, setup = st.gcfg.CopyLatency/2+d, d, st.ccfg.MemcpySetupCost
	case opAsyncD2HPageable:
		// The copy rides its own stream, which only its own stream's work
		// can delay — the pacing kernel must share it.
		d := cd(gpu.OpCopyD2H, rec.Bytes)
		stream = st.condStream
		wmin, endOff, setup = st.gcfg.CopyLatency/2+d, d, st.ccfg.MemcpySetupCost
	case opMemsetManaged:
		d := st.gcfg.CopyLatency + simtime.Duration(rec.Bytes)*simtime.Microsecond/simtime.Duration(st.gcfg.MemsetBytesPerUS)
		wmin, endOff, setup = st.gcfg.KernelQueueLatency+d, d, st.ccfg.MemsetSetupCost
	case opMemcpyPeer:
		// With two devices the two halves of the peer copy run in
		// parallel; on one device they share the legacy queue and
		// serialize.
		d := cd(gpu.OpCopyD2D, rec.Bytes)
		if len(st.p.Devs) > 1 {
			wmin, endOff = st.gcfg.CopyLatency/2+d, d
		} else {
			wmin, endOff = st.gcfg.CopyLatency/2+2*d, 2*d
		}
		setup = st.ccfg.MemcpySetupCost
	default:
		return nil // async transfers and gemm carry no pacing kernel
	}
	if w <= wmin {
		return nil // the call's own work reproduces the wait exactly
	}
	ledger := st.p.Ctx.InstrumentationOverhead()
	pEntry := st.p.Ctx.ProbeOverheadOf(cuda.Func(rec.Func))
	syncStart := rec.Entry.Add(ledger + pEntry + st.ccfg.CallOverhead + setup)
	target := syncStart.Add(w - endOff)
	// The kernel is enqueued directly on the device, not through
	// cuda.LaunchKernel: the original launch happened at some unrecorded
	// earlier instant, and charging driver CPU cost here would push past
	// entry times when the original left no CPU gap before the sync.
	// Predict where the kernel will start: the device applies its queue
	// latency and any outstanding work on the kernel's stream or the
	// legacy queue.
	start := st.p.Clock.Now().Add(st.gcfg.KernelQueueLatency)
	if r := st.p.Dev.StreamBusyUntil(stream); r.After(start) {
		start = r
	}
	if f := st.p.Dev.StreamBusyUntil(gpu.LegacyStream); f.After(start) {
		start = f
	}
	dur := target.Sub(start)
	if dur < 0 {
		dur = 0
	}
	st.p.Dev.EnqueueKernel(stream, "replay pacing", dur)
	return nil
}

// nextAsyncStream round-robins truly-async copies over the stream pool so
// copies the original overlapped still overlap.
func (st *replayState) nextAsyncStream() gpu.StreamID {
	s := st.asyncStreams[st.nextAsync%len(st.asyncStreams)]
	st.nextAsync++
	return s
}

// issue makes the recorded driver call against the replay buffers.
func (st *replayState) issue(rec *trace.Record, op replayOp) error {
	p := st.p
	n := rec.Bytes
	switch op {
	case opMemcpyH2D:
		return p.Ctx.MemcpyH2D(st.devDst.Base(), st.staging.Base(), n)
	case opMemcpyD2H:
		st.lastWatched = st.pageable
		return p.Ctx.MemcpyD2H(st.pageable.Base(), st.devSrc.Base(), n)
	case opMemcpyD2D:
		return p.Ctx.MemcpyD2D(st.devDst.Base(), st.devSrc.Base(), n)
	case opAsyncH2D:
		return p.Ctx.MemcpyAsyncH2D(st.devDst.Base(), st.staging.Base(), n, st.nextAsyncStream())
	case opAsyncD2HPinned:
		st.lastWatched = st.pinned
		return p.Ctx.MemcpyAsyncD2H(st.pinned.Base(), st.devSrc.Base(), n, st.nextAsyncStream())
	case opAsyncD2HPageable:
		st.lastWatched = st.pageable
		return p.Ctx.MemcpyAsyncD2H(st.pageable.Base(), st.devSrc.Base(), n, st.condStream)
	case opMemsetDev:
		return p.Ctx.MemsetDev(st.devDst.Base(), 0, n)
	case opMemsetManaged:
		st.lastWatched = st.managed
		return p.Ctx.MemsetManaged(st.managed.Base(), 0, n)
	case opMemcpyPeer:
		dstDev, dst := 0, st.devDst.Base()
		if len(p.Devs) > 1 {
			dstDev, dst = 1, st.peer.Base()
		}
		return p.Ctx.MemcpyPeer(dstDev, dst, 0, st.devSrc.Base(), n)
	case opFree:
		buf := st.freeBufs[st.nextFree]
		st.nextFree++
		return p.Ctx.Free(buf)
	case opDeviceSync:
		p.Ctx.DeviceSynchronize()
		return nil
	case opThreadSync:
		p.Ctx.ThreadSynchronize()
		return nil
	case opStreamSync:
		p.Ctx.StreamSynchronize(st.kernelStream)
		return nil
	case opGemm:
		// The gemm's own kernel is the recorded wait: it starts after the
		// device queue latency and the sync spans both.
		dur := rec.SyncWait - st.gcfg.KernelQueueLatency
		if dur < 0 {
			dur = 0
		}
		p.Ctx.PrivateGemm("replay gemm", dur, st.gemmStream, true)
		return nil
	case opPrivateD2H:
		st.lastWatched = st.pageable
		return p.Ctx.PrivateMemcpyD2H(st.pageable.Base(), st.devSrc.Base(), n)
	}
	return &ReplayError{Seq: rec.Seq, Reason: "unhandled operation"}
}

// replayAccess reproduces the first use of synchronized data: a read at the
// recorded source position, at exit+firstUse on the compensated timeline,
// into the most recently written GPU-visible host region. Stages 3 and 4
// watch those regions, so the read re-triggers the original
// protected-access discovery and first-use measurement.
func (st *replayState) replayAccess(rec *trace.Record) {
	st.padTo(rec.Exit.Add(rec.FirstUse).Add(st.p.Ctx.InstrumentationOverhead()))
	r := st.lastWatched
	if r == nil || r.Size() == 0 {
		return // trace claims a use before any readback; nothing to touch
	}
	site := rec.AccessSite
	if site.IsZero() {
		site = trace.Site{Function: "replayUse", File: "replay.go", Line: 1}
	}
	n := r.Size()
	if n > 16 {
		n = 16
	}
	st.p.In(site.Function, site.File, site.Line, func() {
		_, _ = st.p.Read(r.Base(), n, site.Line)
	})
}
