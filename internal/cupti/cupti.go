// Package cupti is the analog of NVIDIA's CUDA Profiling Tools Interface:
// the closed-source activity-record framework every mainstream GPU profiler
// consumes (§2.2 of the paper).
//
// It faithfully reproduces the *gaps* the paper documents rather than the
// full truth the simulator knows:
//
//   - driver-call records exist only for public API entry points; calls made
//     through the proprietary private API are never reported;
//   - synchronization records are generated only for explicit
//     synchronizations (cudaDeviceSynchronize, cudaStreamSynchronize,
//     cudaThreadSynchronize). Implicit synchronizations (cudaMemcpy,
//     cudaFree) and conditional ones (pageable-destination cudaMemcpyAsync,
//     cudaMemset on unified memory) produce no record of their wait time;
//   - device activity records (kernels, memcpies, memsets) are reported,
//     since the hardware queues observe them regardless of which API issued
//     them.
//
// The profiler package builds its NVProf analog exclusively from this
// interface, which is how Table 2's misattributions arise.
package cupti

import (
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/simtime"
)

// ActivityKind classifies an activity record.
type ActivityKind uint8

// Activity kinds.
const (
	ActivityDriverCall ActivityKind = iota
	ActivityKernel
	ActivityMemcpy
	ActivityMemset
	ActivitySynchronization
)

// String names the kind using CUPTI vocabulary.
func (k ActivityKind) String() string {
	switch k {
	case ActivityDriverCall:
		return "CUPTI_ACTIVITY_KIND_DRIVER"
	case ActivityKernel:
		return "CUPTI_ACTIVITY_KIND_KERNEL"
	case ActivityMemcpy:
		return "CUPTI_ACTIVITY_KIND_MEMCPY"
	case ActivityMemset:
		return "CUPTI_ACTIVITY_KIND_MEMSET"
	case ActivitySynchronization:
		return "CUPTI_ACTIVITY_KIND_SYNCHRONIZATION"
	default:
		return "CUPTI_ACTIVITY_KIND_UNKNOWN"
	}
}

// Activity is one record in the activity buffer.
type Activity struct {
	Kind   ActivityKind
	Name   string // API function or kernel name
	Start  simtime.Time
	End    simtime.Time
	Bytes  int
	Stream gpu.StreamID
}

// Duration returns the record's time span.
func (a Activity) Duration() simtime.Duration { return a.End.Sub(a.Start) }

// Collector buffers activity records. It implements cuda.ActivityListener.
type Collector struct {
	records []Activity
	dropped int64
	// Limit bounds the buffer; beyond it records are dropped silently
	// (CUPTI's flush-or-lose buffers). Zero means unlimited.
	Limit int
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

var _ cuda.ActivityListener = (*Collector)(nil)

func (c *Collector) add(a Activity) {
	if c.Limit > 0 && len(c.records) >= c.Limit {
		c.dropped++
		return
	}
	c.records = append(c.records, a)
}

// DriverCall records a public API call.
func (c *Collector) DriverCall(fn cuda.Func, entry, exit simtime.Time) {
	c.add(Activity{Kind: ActivityDriverCall, Name: string(fn), Start: entry, End: exit})
}

// DeviceOp records a device activity.
func (c *Collector) DeviceOp(op *gpu.Op) {
	kind := ActivityKernel
	switch op.Kind {
	case gpu.OpCopyH2D, gpu.OpCopyD2H, gpu.OpCopyD2D:
		kind = ActivityMemcpy
	case gpu.OpMemset:
		kind = ActivityMemset
	}
	end := op.End
	if end == simtime.Infinity {
		// A still-running kernel has no completion timestamp; CUPTI would
		// simply not flush the record. Record it with End == Start so
		// aggregations ignore it.
		end = op.Start
	}
	c.add(Activity{Kind: kind, Name: op.Name, Start: op.Start, End: end, Bytes: op.Bytes, Stream: op.Stream})
}

// SyncRecord records an explicit synchronization.
func (c *Collector) SyncRecord(fn cuda.Func, start, end simtime.Time) {
	c.add(Activity{Kind: ActivitySynchronization, Name: string(fn), Start: start, End: end})
}

// Records returns all buffered activities in arrival order.
func (c *Collector) Records() []Activity { return c.records }

// Dropped returns how many records were lost to the buffer limit.
func (c *Collector) Dropped() int64 { return c.dropped }

// DriverTimeByFunc sums driver-call record durations per API function —
// the aggregation NVProf's "API calls" summary section performs.
func (c *Collector) DriverTimeByFunc() map[string]simtime.Duration {
	out := make(map[string]simtime.Duration)
	for _, a := range c.records {
		if a.Kind == ActivityDriverCall {
			out[a.Name] += a.Duration()
		}
	}
	return out
}

// DriverCallsByFunc counts driver-call records per API function.
func (c *Collector) DriverCallsByFunc() map[string]int64 {
	out := make(map[string]int64)
	for _, a := range c.records {
		if a.Kind == ActivityDriverCall {
			out[a.Name]++
		}
	}
	return out
}
