package cuda

import (
	"fmt"

	"diogenes/internal/callstack"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/obs"
	"diogenes/internal/simtime"
)

// Config sets the CPU-side cost of driver calls. These costs are what
// resource-consumption profilers (NVProf, HPCToolkit) attribute to each API
// function; they are tuned so the per-function profile shapes of Table 2
// emerge from call counts.
type Config struct {
	CallOverhead     simtime.Duration // base CPU cost of entering the driver
	MallocCost       simtime.Duration
	FreeCost         simtime.Duration // CPU-side cost, excluding the implicit sync
	PinnedAllocCost  simtime.Duration
	ManagedAllocCost simtime.Duration
	LaunchCost       simtime.Duration
	MemcpySetupCost  simtime.Duration
	MemsetSetupCost  simtime.Duration
	AttrCost         simtime.Duration
}

// DefaultConfig returns driver costs representative of CUDA 9 on POWER8.
func DefaultConfig() Config {
	return Config{
		CallOverhead:     1 * simtime.Microsecond,
		MallocCost:       38 * simtime.Microsecond,
		FreeCost:         9 * simtime.Microsecond,
		PinnedAllocCost:  220 * simtime.Microsecond,
		ManagedAllocCost: 60 * simtime.Microsecond,
		LaunchCost:       7 * simtime.Microsecond,
		MemcpySetupCost:  4 * simtime.Microsecond,
		MemsetSetupCost:  3 * simtime.Microsecond,
		AttrCost:         2 * simtime.Microsecond,
	}
}

// HostAttr describes how a host region was allocated, which decides the
// conditional-synchronization behaviour of cudaMemcpyAsync.
type HostAttr uint8

// Host allocation attributes.
const (
	HostPageable HostAttr = iota // ordinary malloc'd memory
	HostPinned                   // cudaMallocHost
	HostManaged                  // cudaMallocManaged (unified)
)

// String names the attribute.
func (a HostAttr) String() string {
	switch a {
	case HostPinned:
		return "pinned"
	case HostManaged:
		return "managed"
	default:
		return "pageable"
	}
}

// Probe observes one driver function. Entry fires before the call body,
// Exit after it completes; either may be nil. Overhead is virtual CPU time
// added per fired callback, modelling the trampoline plus snippet cost of
// binary instrumentation — this is what makes FFM's heavyweight stages slow
// the application down (§5.3).
//
// The *Call a callback receives is valid only for the duration of that
// callback: the context reuses the frame for a later call once the exit
// probes and the activity listener have run. A probe that needs a field
// afterwards copies it (a struct copy `*c` or the field itself); it never
// keeps the pointer. The *gpu.Op of a process without an op log follows
// the same rule (see gpu.Op).
type Probe struct {
	Entry    func(*Call)
	Exit     func(*Call)
	Overhead simtime.Duration
}

// ActivityListener receives the events the vendor's CUPTI framework would
// publish. The cupti package implements it; registering nothing is the
// uninstrumented case.
type ActivityListener interface {
	// DriverCall reports entry/exit of a public driver API call. Calls made
	// through private entry points are never reported (§2.2).
	DriverCall(fn Func, entry, exit simtime.Time)
	// DeviceOp reports a device activity record (kernel, memcpy, memset).
	// Like a probe's *Call, op is valid only for the duration of the
	// callback: a device without an op log reuses it for its next
	// operation. A listener copies the fields it keeps.
	DeviceOp(op *gpu.Op)
	// SyncRecord reports a synchronization activity. Only explicit
	// synchronizations generate these (§2.2).
	SyncRecord(fn Func, start, end simtime.Time)
}

// CallDecision is a CallFilter's verdict for one driver call.
type CallDecision uint8

// Call decisions.
const (
	Proceed  CallDecision = iota // execute the call normally
	Suppress                     // elide the call entirely (binary patch analog)
)

// CallFilter decides, per call site, whether a driver call executes. It is
// the analog of the automatic-correction binary patching the paper's §6
// proposes: a suppressed call never enters the driver — no CPU cost, no
// device operation, no synchronization, no record. Filters are only
// consulted for calls that are semantically elidable (synchronizations,
// transfers, frees); allocation and launch calls always proceed.
type CallFilter func(fn Func, stack callstack.Trace) CallDecision

// HangError is the panic value raised when the CPU blocks on an operation
// that will never complete (waiting on the never-completing kernel of the
// §3.1 discovery test). The discovery harness recovers it; anything else
// propagating a HangError is a genuinely hung simulated program.
type HangError struct {
	Func  Func // the API call that blocked
	Since simtime.Time
}

// Error describes the hang.
func (h HangError) Error() string {
	return fmt.Sprintf("cuda: %s blocked forever at %v", h.Func, h.Since)
}

// Context is a CUDA context: one device, one host address space, one
// application thread.
type Context struct {
	clock *simtime.Clock
	devs  []*gpu.Device
	cur   int
	host  *memory.Space
	stack *callstack.Stack
	cfg   Config
	// content is whether the process keeps memory contents; without it
	// transfers and kernel writes move no bytes, only check their ranges.
	content bool

	hostAttrs map[*memory.Region]HostAttr
	managed   map[*memory.Region]*gpu.DevBuf // unified host region -> device mirror

	nextEvent       int
	filter          CallFilter
	suppressed      map[Func]int64
	byFunc          map[Func][]Probe
	listener        ActivityListener
	capturePayloads bool
	captureStacks   bool

	totalCalls int64

	// frames holds finished Call frames for reuse, so a driver call does
	// not heap-allocate its frame. Nested calls (internalSync, a probe that
	// issues a driver call) each take their own frame.
	frames []*Call
	// scratch holds the bytes of a KernelWrite between generating them and
	// DevWrite copying them into device memory.
	scratch []byte
	// fillBuf is every byte fillVal: the source bytes of a transfer whose
	// source view is uniform, grown on demand and refilled only when the
	// fill value changes.
	fillBuf []byte
	fillVal byte

	// overheadLedger accumulates all virtual time charged by
	// instrumentation (probe trampolines, hashing, load/store snippets).
	// Collectors subtract it to report timings on the application's own
	// timeline, the way production tools compensate for known probe cost.
	overheadLedger simtime.Duration

	// Self-measurement instruments (nil when the process is unobserved).
	// They record virtual durations without ever advancing the clock, so
	// attaching them cannot perturb the simulation.
	mSyncs       *obs.Counter
	mSyncWait    *obs.Histogram
	mProbeCharge *obs.Counter
}

// NewContext creates a context over the given clock, device, host space and
// application stack.
func NewContext(clock *simtime.Clock, dev *gpu.Device, host *memory.Space, stack *callstack.Stack, cfg Config) *Context {
	return NewMultiContext(clock, []*gpu.Device{dev}, host, stack, cfg)
}

// NewMultiContext creates a context over several devices, matching the
// multi-GPU nodes of the paper's testbed (each Ray node carried four
// Pascal-class GPUs). Device 0 is current initially; SetDevice switches.
// The context moves bytes only when host keeps contents, so the devices
// must keep content exactly when host does.
func NewMultiContext(clock *simtime.Clock, devs []*gpu.Device, host *memory.Space, stack *callstack.Stack, cfg Config) *Context {
	if len(devs) == 0 {
		panic("cuda: NewMultiContext with no devices")
	}
	return &Context{
		clock:     clock,
		devs:      devs,
		host:      host,
		stack:     stack,
		cfg:       cfg,
		content:   host.Content(),
		hostAttrs: make(map[*memory.Region]HostAttr),
		managed:   make(map[*memory.Region]*gpu.DevBuf),
		byFunc:    make(map[Func][]Probe),
	}
}

// Clock returns the shared virtual clock.
func (c *Context) Clock() *simtime.Clock { return c.clock }

// Device returns the currently selected device.
func (c *Context) Device() *gpu.Device { return c.devs[c.cur] }

// DeviceCount returns the number of devices in the context.
func (c *Context) DeviceCount() int { return len(c.devs) }

// CurrentDevice returns the index of the selected device.
func (c *Context) CurrentDevice() int { return c.cur }

// Host returns the host address space.
func (c *Context) Host() *memory.Space { return c.host }

// Stack returns the application call stack.
func (c *Context) Stack() *callstack.Stack { return c.stack }

// Config returns the driver cost configuration.
func (c *Context) Config() Config { return c.cfg }

// SetListener installs the vendor activity listener (nil to remove).
func (c *Context) SetListener(l ActivityListener) { c.listener = l }

// SetMetrics attaches a self-measurement registry: every synchronization's
// wait duration lands in cuda/sync_wait_ns (with cuda/syncs counting
// events), and every instrumentation charge is mirrored to
// cuda/probe_overhead_ns. Instrument pointers are resolved once here so
// the driver's hot path pays atomics, not map lookups. A nil registry
// detaches.
func (c *Context) SetMetrics(m *obs.Registry) {
	c.mSyncs = m.Counter("cuda/syncs")
	c.mSyncWait = m.Histogram("cuda/sync_wait_ns")
	c.mProbeCharge = m.Counter("cuda/probe_overhead_ns")
}

// SetPayloadCapture enables handing transfer payloads to probes in
// Call.Payload for hashing (stage 3). Off by default. A process that keeps
// no content has no payloads to capture; asking it to is a bug.
func (c *Context) SetPayloadCapture(on bool) {
	if on && !c.content {
		panic("cuda: payload capture in a process that keeps no content")
	}
	c.capturePayloads = on
}

// SetStackCapture enables stack snapshots on every probed call.
func (c *Context) SetStackCapture(on bool) { c.captureStacks = on }

// SetCallFilter installs the patch filter (nil removes it).
func (c *Context) SetCallFilter(f CallFilter) {
	c.filter = f
	if c.suppressed == nil {
		c.suppressed = make(map[Func]int64)
	}
}

// SuppressedCalls returns per-function counts of filtered-out calls.
func (c *Context) SuppressedCalls() map[Func]int64 {
	out := make(map[Func]int64, len(c.suppressed))
	for k, v := range c.suppressed {
		out[k] = v
	}
	return out
}

// elided consults the call filter for an elidable call. When it returns
// true the API method must return immediately without side effects.
func (c *Context) elided(fn Func) bool {
	if c.filter == nil {
		return false
	}
	if c.filter(fn, c.stack.SharedSnapshot()) != Suppress {
		return false
	}
	c.suppressed[fn]++
	return true
}

// AttachProbe wraps driver function fn with p for the rest of the
// process's life: every FFM stage runs in a fresh process, so nothing
// detaches. Multiple probes on one function fire in attach order.
func (c *Context) AttachProbe(fn Func, p Probe) {
	c.byFunc[fn] = append(c.byFunc[fn], p)
}

// ProbeOverheadOf returns the summed per-event overhead of the probes
// attached to fn — the virtual time one entry (or exit) firing of fn's
// probes charges. Trace replay uses it to place synchronization waits on
// the application's own timeline regardless of which collection stage is
// currently instrumenting the process.
func (c *Context) ProbeOverheadOf(fn Func) simtime.Duration {
	var total simtime.Duration
	for _, p := range c.byFunc[fn] {
		total += p.Overhead
	}
	return total
}

// TotalCalls returns the number of driver calls issued (public + private).
func (c *Context) TotalCalls() int64 { return c.totalCalls }

// HostAttrOf returns the allocation attribute of the host region containing
// addr, defaulting to pageable.
func (c *Context) HostAttrOf(addr memory.Addr) HostAttr {
	r := c.host.RegionAt(addr)
	if r == nil {
		return HostPageable
	}
	return c.hostAttrs[r]
}

// InstrumentationOverhead returns the total virtual time charged by
// instrumentation so far.
func (c *Context) InstrumentationOverhead() simtime.Duration { return c.overheadLedger }

// ChargeOverhead advances the clock by d and books it on the
// instrumentation ledger. External instrumentation (payload hashing,
// load/store snippets) uses it instead of advancing the clock directly.
func (c *Context) ChargeOverhead(d simtime.Duration) {
	if d <= 0 {
		return
	}
	c.clock.Advance(d)
	c.overheadLedger += d
	c.mProbeCharge.Add(int64(d))
}

// fireEntry runs entry probes for fn.
func (c *Context) fireEntry(fn Func, call *Call) {
	for _, p := range c.byFunc[fn] {
		c.ChargeOverhead(p.Overhead)
		if p.Entry != nil {
			p.Entry(call)
		}
	}
}

// fireExit runs exit probes for fn.
func (c *Context) fireExit(fn Func, call *Call) {
	for _, p := range c.byFunc[fn] {
		c.ChargeOverhead(p.Overhead)
		if p.Exit != nil {
			p.Exit(call)
		}
	}
}

func (c *Context) probed(fn Func) bool { return len(c.byFunc[fn]) > 0 }

// newCall takes a zeroed frame from the free list, or allocates one, and
// stamps it with fn, kind and the current instant.
func (c *Context) newCall(fn Func, kind CallKind) *Call {
	var call *Call
	if n := len(c.frames); n > 0 {
		call = c.frames[n-1]
		c.frames = c.frames[:n-1]
	} else {
		call = new(Call)
	}
	call.Func, call.Kind, call.Entry = fn, kind, c.clock.Now()
	return call
}

// freeCall zeroes a frame whose probes and listener have all run and puts
// it back on the free list. A frame abandoned by a panic is never freed; the
// garbage collector takes it.
func (c *Context) freeCall(call *Call) {
	*call = Call{}
	c.frames = append(c.frames, call)
}

// beginCall opens a driver call frame: counts it, stamps entry, snapshots
// the stack if requested, and fires entry probes.
func (c *Context) beginCall(fn Func, kind CallKind) *Call {
	call := c.newCall(fn, kind)
	c.totalCalls++
	if c.captureStacks && c.probed(fn) {
		call.Stack = c.stack.SharedSnapshot()
	}
	c.fireEntry(fn, call)
	c.clock.Advance(c.cfg.CallOverhead)
	return call
}

// endCall closes the frame, fires exit probes, reports to the vendor
// listener for public API calls, and frees the frame.
func (c *Context) endCall(call *Call) {
	call.Exit = c.clock.Now()
	c.fireExit(call.Func, call)
	if c.listener != nil && call.Func.IsPublic() {
		c.listener.DriverCall(call.Func, call.Entry, call.Exit)
	}
	c.freeCall(call)
}

// touchInternal exercises a non-blocking internal driver function so probes
// attached to it fire (and the discovery test sees it enter and exit).
func (c *Context) touchInternal(fn Func) {
	if !c.probed(fn) {
		return
	}
	call := c.newCall(fn, KindOther)
	c.fireEntry(fn, call)
	call.Exit = c.clock.Now()
	c.fireExit(fn, call)
	c.freeCall(call)
}

// internalSync is the shared wait function of Figure 3. Every blocking
// driver path calls it; probes attached to FuncInternalSync observe every
// synchronization regardless of how it was requested. If the wait target is
// infinite (the never-completing kernel), entry probes fire and the call
// panics with HangError — the analog of a watchdog finding the thread
// parked inside the funnel.
func (c *Context) internalSync(until simtime.Time, scope SyncScope, outer *Call) {
	syncCall := c.newCall(FuncInternalSync, KindSync)
	syncCall.Scope = scope
	syncCall.Caller = outer.Func
	if c.captureStacks && c.probed(FuncInternalSync) {
		syncCall.Stack = c.stack.SharedSnapshot()
	}
	syncCall.SyncStart = c.clock.Now()
	c.fireEntry(FuncInternalSync, syncCall)
	if until == simtime.Infinity {
		panic(HangError{Func: outer.Func, Since: c.clock.Now()})
	}
	if until > c.clock.Now() {
		c.clock.AdvanceTo(until)
	}
	syncCall.SyncEnd = c.clock.Now()
	syncCall.Exit = syncCall.SyncEnd
	c.fireExit(FuncInternalSync, syncCall)
	c.mSyncs.Inc()
	c.mSyncWait.Observe(int64(syncCall.SyncEnd - syncCall.SyncStart))

	outer.Scope = scope
	outer.SyncStart = syncCall.SyncStart
	outer.SyncEnd = syncCall.SyncEnd
	if c.listener != nil && scope.CUPTIVisible() {
		c.listener.SyncRecord(outer.Func, syncCall.SyncStart, syncCall.SyncEnd)
	}
	c.freeCall(syncCall)
}

// capture hands a transfer's source view to the call's probes when payload
// capture is on.
func (c *Context) capture(call *Call, v memory.View) {
	if c.capturePayloads {
		call.Payload = v
	}
}

// viewBytes returns the bytes of a transfer's source view: its live bytes
// when dense, and when uniform the context's fill buffer, so neither the
// source nor the destination's backing is rebuilt per transfer. The slice
// is valid until the next call; the landing copies it at once.
func (c *Context) viewBytes(v memory.View) []byte {
	if !v.Uniform() {
		return v.Data
	}
	if len(c.fillBuf) < v.Len {
		c.fillBuf, c.fillVal = make([]byte, v.Len), 0
	}
	if c.fillVal != v.Fill {
		for i := range c.fillBuf {
			c.fillBuf[i] = v.Fill
		}
		c.fillVal = v.Fill
	}
	return c.fillBuf[:v.Len]
}

// devWrite lands n bytes at dst on dev: data when the process keeps
// content, the range check alone when it does not (data is nil then).
func (c *Context) devWrite(dev *gpu.Device, dst gpu.DevPtr, data []byte, n int) error {
	if !c.content {
		return dev.DevWriteN(dst, n)
	}
	return dev.DevWrite(dst, data)
}

// hostWrite lands a device-to-host transfer's source view v, n bytes, at
// dst, as devWrite does on the device side.
func (c *Context) hostWrite(dst memory.Addr, v memory.View, n int) error {
	if !c.content {
		return c.host.PokeN(dst, n)
	}
	return c.host.Poke(dst, c.viewBytes(v))
}

// reportOp publishes a device activity record.
func (c *Context) reportOp(op *gpu.Op) {
	if c.listener != nil {
		c.listener.DeviceOp(op)
	}
}
