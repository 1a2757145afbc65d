// Package gpu is a discrete-event simulator for a CUDA-class accelerator.
//
// The device executes work asynchronously on streams: each stream is a FIFO
// of operations (kernels, memory copies, memsets), every operation occupies
// a contiguous span of virtual time, and the legacy default stream
// serializes against all other streams exactly as CUDA's NULL stream does.
// The CPU side (package cuda) enqueues operations and, when an API call must
// block, advances the shared virtual clock to the device completion time.
//
// Diogenes never inspects the GPU directly — it infers everything from
// CPU-side wait durations — so the simulator's job is to produce the same
// *timing structure* a real device produces: asynchronous launches that
// return immediately, transfers whose duration scales with size, and
// synchronizations whose cost is however much queued work remains.
package gpu

import (
	"fmt"
	"sort"

	"diogenes/internal/simtime"
)

// StreamID identifies a stream. LegacyStream is the CUDA NULL stream.
type StreamID int

// LegacyStream is the default (NULL) stream, which synchronizes with every
// other stream on the device.
const LegacyStream StreamID = 0

// OpKind classifies device operations.
type OpKind uint8

// Operation kinds.
const (
	OpKernel OpKind = iota
	OpCopyH2D
	OpCopyD2H
	OpCopyD2D
	OpMemset
)

// String names the kind using CUDA vocabulary.
func (k OpKind) String() string {
	switch k {
	case OpKernel:
		return "kernel"
	case OpCopyH2D:
		return "memcpy HtoD"
	case OpCopyD2H:
		return "memcpy DtoH"
	case OpCopyD2D:
		return "memcpy DtoD"
	case OpMemset:
		return "memset"
	default:
		return fmt.Sprintf("OpKind(%d)", k)
	}
}

// Op is one operation on the device timeline.
//
// An *Op returned by an Enqueue method of a device without an op log
// (Keep.OpLog unset) is valid only until that device's next Enqueue call,
// which reuses it. Holders copy the fields they keep and never keep the
// pointer: the cupti collector, the driver's activity reports and every
// LaunchKernel caller do.
type Op struct {
	Seq     int
	Kind    OpKind
	Name    string
	Stream  StreamID
	Bytes   int
	Enqueue simtime.Time
	Start   simtime.Time
	End     simtime.Time // simtime.Infinity for a never-completing kernel
}

// Duration returns the operation's device-side duration.
func (o *Op) Duration() simtime.Duration {
	if o.End == simtime.Infinity {
		return simtime.Duration(simtime.Infinity)
	}
	return o.End.Sub(o.Start)
}

// Config sets the device's performance characteristics. The defaults are
// loosely modelled on the Pascal-class GPUs of LLNL's Ray cluster (§5): a
// PCIe/NVLink-ish interconnect and microsecond-scale launch costs.
type Config struct {
	// H2DBytesPerUS and D2HBytesPerUS are transfer throughputs in bytes
	// per microsecond of virtual time.
	H2DBytesPerUS int
	D2HBytesPerUS int
	// CopyLatency is the fixed device-side setup cost of any transfer.
	CopyLatency simtime.Duration
	// KernelQueueLatency is the device-side delay between an enqueue and
	// the earliest possible start when the stream is idle.
	KernelQueueLatency simtime.Duration
	// MemsetBytesPerUS is the device-side fill throughput.
	MemsetBytesPerUS int
	// MemoryBytes is the device memory capacity.
	MemoryBytes int64
}

// DefaultConfig returns the configuration used by the modelled applications.
func DefaultConfig() Config {
	return Config{
		H2DBytesPerUS:      11000, // ~11 GB/s
		D2HBytesPerUS:      12000, // ~12 GB/s
		CopyLatency:        8 * simtime.Microsecond,
		KernelQueueLatency: 3 * simtime.Microsecond,
		MemsetBytesPerUS:   80000,
		MemoryBytes:        16 << 30, // 16 GiB
	}
}

type stream struct {
	id      StreamID
	readyAt simtime.Time
}

// Keep selects what a device simulates beyond timing, addresses and
// errors, which it always simulates.
type Keep struct {
	// Content keeps the bytes of device memory. Without it, writes and
	// fills are checked and dropped, and DevRead fails with ErrNoContent.
	Content bool
	// OpLog keeps every enqueued operation for Ops and BusySpans. Without
	// it, the Enqueue methods reuse one Op per device.
	OpLog bool
}

// Device is one simulated GPU.
type Device struct {
	clock   *simtime.Clock
	cfg     Config
	keep    Keep
	streams map[StreamID]*stream
	// legacyFence is the completion time of the most recent legacy-stream
	// operation; non-legacy streams may not start work before it.
	legacyFence simtime.Time
	ops         []*Op
	// spare is the one Op a device without an op log hands out, reused by
	// every Enqueue call.
	spare   Op
	nextSeq int
	mem     *devAllocator
}

// New creates a device sharing the given CPU clock that keeps its memory
// contents and its operation log.
func New(clock *simtime.Clock, cfg Config) *Device {
	return NewKeeping(clock, cfg, Keep{Content: true, OpLog: true})
}

// NewKeeping creates a device that keeps only what keep selects.
func NewKeeping(clock *simtime.Clock, cfg Config, keep Keep) *Device {
	return &Device{
		clock:   clock,
		cfg:     cfg,
		keep:    keep,
		streams: map[StreamID]*stream{LegacyStream: {id: LegacyStream}},
		mem:     newDevAllocator(cfg.MemoryBytes),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// CreateStream registers a new non-legacy stream and returns its id.
func (d *Device) CreateStream() StreamID {
	id := StreamID(len(d.streams))
	d.streams[id] = &stream{id: id}
	return id
}

// StreamExists reports whether id names a known stream.
func (d *Device) StreamExists(id StreamID) bool {
	_, ok := d.streams[id]
	return ok
}

func (d *Device) stream(id StreamID) *stream {
	s, ok := d.streams[id]
	if !ok {
		panic(fmt.Sprintf("gpu: unknown stream %d", id))
	}
	return s
}

// startTime computes the earliest start for an op enqueued now on stream id,
// honouring FIFO order within the stream and legacy-stream serialization.
func (d *Device) startTime(id StreamID, queueLatency simtime.Duration) simtime.Time {
	earliest := d.clock.Now().Add(queueLatency)
	s := d.stream(id)
	start := simtime.Max(earliest, s.readyAt)
	if id == LegacyStream {
		// The NULL stream waits for every stream on the device.
		for _, other := range d.streams {
			start = simtime.Max(start, other.readyAt)
		}
	} else {
		start = simtime.Max(start, d.legacyFence)
	}
	return start
}

// newOp returns the Op an Enqueue call fills in: a fresh one for the log,
// or the device's reused spare when it keeps none.
func (d *Device) newOp(op Op) *Op {
	if !d.keep.OpLog {
		d.spare = op
		return &d.spare
	}
	logged := new(Op)
	*logged = op
	return logged
}

// record sequences op, advances its stream and logs op if the device
// keeps an op log.
func (d *Device) record(op *Op, id StreamID) *Op {
	op.Seq = d.nextSeq
	d.nextSeq++
	s := d.stream(id)
	s.readyAt = op.End
	if id == LegacyStream {
		d.legacyFence = op.End
	}
	if d.keep.OpLog {
		d.ops = append(d.ops, op)
	}
	return op
}

// EnqueueKernel queues a kernel of the given device duration. A duration of
// simtime.Duration(simtime.Infinity) models the never-completing kernel used
// by the synchronization-function discovery test.
func (d *Device) EnqueueKernel(id StreamID, name string, dur simtime.Duration) *Op {
	start := d.startTime(id, d.cfg.KernelQueueLatency)
	end := start.Add(dur)
	if dur == simtime.Duration(simtime.Infinity) {
		end = simtime.Infinity
	}
	return d.record(d.newOp(Op{
		Kind: OpKernel, Name: name, Stream: id,
		Enqueue: d.clock.Now(), Start: start, End: end,
	}), id)
}

// CopyDuration returns the device-side duration of a transfer of n bytes.
func (d *Device) CopyDuration(kind OpKind, n int) simtime.Duration {
	bw := d.cfg.H2DBytesPerUS
	switch kind {
	case OpCopyD2H:
		bw = d.cfg.D2HBytesPerUS
	case OpCopyD2D:
		bw = d.cfg.H2DBytesPerUS * 4 // on-device copies are much faster
	}
	if bw <= 0 {
		panic("gpu: zero transfer bandwidth")
	}
	t := simtime.Duration(n) * simtime.Microsecond / simtime.Duration(bw)
	return d.cfg.CopyLatency + t
}

// EnqueueCopy queues a transfer of n bytes.
func (d *Device) EnqueueCopy(id StreamID, kind OpKind, name string, n int) *Op {
	if kind != OpCopyH2D && kind != OpCopyD2H && kind != OpCopyD2D {
		panic(fmt.Sprintf("gpu: EnqueueCopy with kind %v", kind))
	}
	start := d.startTime(id, d.cfg.CopyLatency/2)
	end := start.Add(d.CopyDuration(kind, n))
	return d.record(d.newOp(Op{
		Kind: kind, Name: name, Stream: id, Bytes: n,
		Enqueue: d.clock.Now(), Start: start, End: end,
	}), id)
}

// EnqueueMemset queues a device-side fill of n bytes.
func (d *Device) EnqueueMemset(id StreamID, name string, n int) *Op {
	start := d.startTime(id, d.cfg.KernelQueueLatency)
	dur := d.cfg.CopyLatency + simtime.Duration(n)*simtime.Microsecond/simtime.Duration(d.cfg.MemsetBytesPerUS)
	end := start.Add(dur)
	return d.record(d.newOp(Op{
		Kind: OpMemset, Name: name, Stream: id, Bytes: n,
		Enqueue: d.clock.Now(), Start: start, End: end,
	}), id)
}

// StreamBusyUntil returns the completion time of all work queued on the
// stream. A stream with no pending work reports a time in the past.
func (d *Device) StreamBusyUntil(id StreamID) simtime.Time {
	return d.stream(id).readyAt
}

// BusyUntil returns the completion time of all work queued on the device.
func (d *Device) BusyUntil() simtime.Time {
	var t simtime.Time
	for _, s := range d.streams {
		t = simtime.Max(t, s.readyAt)
	}
	return t
}

// Ops returns all recorded device operations in enqueue order, or nil for a
// device that keeps no op log (Keep.OpLog unset). The slice is shared;
// callers must not modify it.
func (d *Device) Ops() []*Op { return d.ops }

// BusySpans returns the merged intervals during which at least one stream
// was executing, up to horizon. Infinite kernels are truncated at horizon.
// It reads the op log, so a device without one reports no spans.
func (d *Device) BusySpans(horizon simtime.Time) []Span {
	spans := make([]Span, 0, len(d.ops))
	for _, op := range d.ops {
		s, e := op.Start, op.End
		if s >= horizon {
			continue
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			spans = append(spans, Span{Start: s, End: e})
		}
	}
	return MergeSpans(spans)
}

// BusyTime returns total device-busy virtual time up to horizon.
func (d *Device) BusyTime(horizon simtime.Time) simtime.Duration {
	var total simtime.Duration
	for _, s := range d.BusySpans(horizon) {
		total += s.End.Sub(s.Start)
	}
	return total
}

// Span is a half-open interval of virtual time.
type Span struct {
	Start simtime.Time
	End   simtime.Time
}

// MergeSpans merges overlapping or adjacent spans, returning a sorted,
// disjoint set.
func MergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := sorted[:1]
	for _, s := range sorted[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}
