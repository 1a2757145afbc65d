// Package cuda models the user-space GPU driver (the simulated libcuda.so).
//
// It exposes a CUDA-runtime-flavoured API over the gpu device simulator and
// reproduces the synchronization behaviours Diogenes depends on (§2.2,
// Figure 3 of the paper):
//
//   - every blocking path — explicit (cudaDeviceSynchronize,
//     cudaStreamSynchronize), implicit (cudaMemcpy, cudaFree), conditional
//     (cudaMemcpyAsync to pageable host memory, cudaMemset on managed
//     memory), and private vendor-library entry points — funnels through a
//     single shared internal synchronization function;
//   - the vendor activity interface (package cupti) is notified only of the
//     events the real CUPTI reports: public driver calls, device activities,
//     and *explicit* synchronizations. Implicit, conditional and private
//     synchronizations are invisible to it;
//   - instrumentation (package interpose) can wrap any driver function,
//     including the internal ones, through the probe table, which is the
//     binary-patching analog.
package cuda

import (
	"fmt"

	"diogenes/internal/callstack"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// Func names a driver entry point. Public names match the CUDA runtime API;
// internal names (prefixed "__nv_") model the undocumented functions
// Diogenes discovers and instruments; private names model the proprietary
// entry points used by vendor libraries such as cuBLAS.
type Func string

// Public runtime API entry points.
const (
	FuncMemcpy            Func = "cudaMemcpy"
	FuncMemcpyAsync       Func = "cudaMemcpyAsync"
	FuncMalloc            Func = "cudaMalloc"
	FuncFree              Func = "cudaFree"
	FuncMallocHost        Func = "cudaMallocHost"
	FuncMallocManaged     Func = "cudaMallocManaged"
	FuncMemset            Func = "cudaMemset"
	FuncLaunchKernel      Func = "cudaLaunchKernel"
	FuncDeviceSync        Func = "cudaDeviceSynchronize"
	FuncStreamSync        Func = "cudaStreamSynchronize"
	FuncThreadSync        Func = "cudaThreadSynchronize"
	FuncFuncGetAttributes Func = "cudaFuncGetAttributes"
	FuncStreamCreate      Func = "cudaStreamCreate"
	FuncSetDevice         Func = "cudaSetDevice"
	FuncMemcpyPeer        Func = "cudaMemcpyPeer"
)

// Internal driver functions. FuncInternalSync is the wait function of
// Figure 3 that all synchronizing operations share; the other two are decoy
// internals exercised on every enqueue/allocation so that the discovery test
// (§3.1) actually has to discriminate the blocking function from its
// neighbours.
const (
	FuncInternalSync    Func = "__nv_sync_wait_internal"
	FuncInternalEnqueue Func = "__nv_enqueue_internal"
	FuncInternalAlloc   Func = "__nv_alloc_track_internal"
)

// Private (non-public driver API) entry points used by the simulated vendor
// math library. CUPTI does not report calls through these (§2.2), but they
// still synchronize through FuncInternalSync, which is how Diogenes sees
// them.
const (
	FuncPrivateGemm   Func = "nvblas::gemm_private"
	FuncPrivateMemcpy Func = "nvblas::memcpy_private"
)

// PublicFuncs lists the public runtime API in a stable order (used by
// profiler summaries).
var PublicFuncs = []Func{
	FuncMemcpy, FuncMemcpyAsync, FuncMalloc, FuncFree, FuncMallocHost,
	FuncMallocManaged, FuncMemset, FuncLaunchKernel, FuncDeviceSync,
	FuncStreamSync, FuncThreadSync, FuncFuncGetAttributes, FuncStreamCreate,
	FuncSetDevice, FuncMemcpyPeer,
}

// InternalFuncs lists candidate internal functions the discovery test
// inspects.
var InternalFuncs = []Func{FuncInternalSync, FuncInternalEnqueue, FuncInternalAlloc}

// IsPublic reports whether fn is part of the public runtime API.
func (f Func) IsPublic() bool {
	for _, p := range PublicFuncs {
		if p == f {
			return true
		}
	}
	return false
}

// IsInternal reports whether fn is an internal driver function.
func (f Func) IsInternal() bool {
	for _, p := range InternalFuncs {
		if p == f {
			return true
		}
	}
	return false
}

// IsPrivate reports whether fn is a private vendor-library entry point.
func (f Func) IsPrivate() bool {
	return f == FuncPrivateGemm || f == FuncPrivateMemcpy
}

// SyncScope classifies how a synchronization was requested (§2.2).
type SyncScope uint8

// Synchronization scopes.
const (
	SyncNone        SyncScope = iota // the call did not synchronize
	SyncExplicit                     // cudaDeviceSynchronize and friends
	SyncImplicit                     // side effect, e.g. cudaMemcpy, cudaFree
	SyncConditional                  // argument-dependent, e.g. pageable-D2H cudaMemcpyAsync
	SyncPrivate                      // reached through the proprietary API
)

// String names the scope.
func (s SyncScope) String() string {
	switch s {
	case SyncNone:
		return "none"
	case SyncExplicit:
		return "explicit"
	case SyncImplicit:
		return "implicit"
	case SyncConditional:
		return "conditional"
	case SyncPrivate:
		return "private"
	default:
		return fmt.Sprintf("SyncScope(%d)", uint8(s))
	}
}

// CUPTIVisible reports whether the vendor activity interface generates a
// synchronization record for this scope. Per §2.2, only explicit
// synchronizations are reported.
func (s SyncScope) CUPTIVisible() bool { return s == SyncExplicit }

// CallKind classifies a driver call for the analysis stages.
type CallKind uint8

// Call kinds.
const (
	KindOther CallKind = iota
	KindSync
	KindTransfer
	KindAlloc
	KindFree
	KindLaunch
)

// String names the kind.
func (k CallKind) String() string {
	switch k {
	case KindSync:
		return "sync"
	case KindTransfer:
		return "transfer"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindLaunch:
		return "launch"
	default:
		return "other"
	}
}

// TransferDir is the direction of a memory transfer.
type TransferDir uint8

// Transfer directions.
const (
	DirNone TransferDir = iota
	DirH2D
	DirD2H
	DirD2D
)

// String uses CUDA's HtoD/DtoH vocabulary.
func (d TransferDir) String() string {
	switch d {
	case DirH2D:
		return "HtoD"
	case DirD2H:
		return "DtoH"
	case DirD2D:
		return "DtoD"
	default:
		return "none"
	}
}

// Call describes one driver call as seen by attached probes. A single Call
// value is passed to entry probes, filled in during execution, and passed to
// exit probes; probes must not retain it past the exit callback unless they
// copy it.
type Call struct {
	Func  Func
	Kind  CallKind
	Entry simtime.Time
	Exit  simtime.Time

	// Caller is set on internal-function calls to the public or private
	// driver entry point that invoked them — what a native stack walk from
	// inside the internal function would show one frame up. Stage 1 uses it
	// to build the list of synchronizing API functions.
	Caller Func

	// Synchronization detail, valid when Scope != SyncNone.
	Scope     SyncScope
	SyncStart simtime.Time
	SyncEnd   simtime.Time

	// Transfer detail, valid when Kind == KindTransfer (and for
	// MallocManaged, which publishes a GPU-writable host range).
	Dir      TransferDir
	Bytes    int
	HostAddr memory.Addr
	HostSize int
	DevPtr   gpu.DevPtr
	Stream   gpu.StreamID

	// Payload is the view of the transfer's source bytes when payload
	// capture is enabled (stage 3 data hashing); the zero View (nil Src)
	// otherwise. A uniform source is described by its fill byte and never
	// read; a dense one aliases live simulated memory together with the
	// source's content version. Probes must consume it inside the exit
	// callback, copying if they need the bytes afterwards, and must never
	// write through it.
	Payload memory.View

	// Stack is the application call stack at entry, captured only when
	// stack capture is enabled (it is expensive, like a real unwind).
	Stack callstack.Trace
}

// Duration returns the total CPU time spent in the call.
func (c *Call) Duration() simtime.Duration { return c.Exit.Sub(c.Entry) }

// SyncWait returns the portion of the call spent blocked in the internal
// synchronization function.
func (c *Call) SyncWait() simtime.Duration {
	if c.Scope == SyncNone {
		return 0
	}
	return c.SyncEnd.Sub(c.SyncStart)
}
