package cuda

import (
	"fmt"

	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// StreamCreate creates a new asynchronous stream.
func (c *Context) StreamCreate() gpu.StreamID {
	call := c.beginCall(FuncStreamCreate, KindOther)
	id := c.devs[c.cur].CreateStream()
	c.endCall(call)
	return id
}

// Malloc allocates device memory. It does not synchronize, so Diogenes
// collects no data on it (§5.2) — but it still has CPU cost, which is why
// NVProf and HPCToolkit rank it highly in call-time profiles.
func (c *Context) Malloc(n int, label string) (*gpu.DevBuf, error) {
	call := c.beginCall(FuncMalloc, KindAlloc)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MallocCost)
	c.touchInternal(FuncInternalAlloc)
	return c.devs[c.cur].Malloc(n, label)
}

// Free releases device memory. cudaFree performs an *implicit* full-device
// synchronization before the release — the behaviour behind the cuIBM and
// cumf_als findings (§5.1) — which CUPTI does not report as a
// synchronization record.
func (c *Context) Free(buf *gpu.DevBuf) error {
	if c.elided(FuncFree) {
		return nil // patched out: the buffer is left for reuse (pooling semantics)
	}
	call := c.beginCall(FuncFree, KindFree)
	defer c.endCall(call)
	c.internalSync(c.devs[c.cur].BusyUntil(), SyncImplicit, call)
	c.clock.Advance(c.cfg.FreeCost)
	c.touchInternal(FuncInternalAlloc)
	return c.devs[c.cur].FreeBuf(buf)
}

// MallocHost allocates pinned host memory. Device-to-host async copies into
// pinned memory are truly asynchronous.
func (c *Context) MallocHost(n int, label string) *memory.Region {
	call := c.beginCall(FuncMallocHost, KindAlloc)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.PinnedAllocCost)
	r := c.host.Alloc(n, label)
	c.hostAttrs[r] = HostPinned
	return r
}

// FreeHost releases pinned host memory.
func (c *Context) FreeHost(r *memory.Region) {
	delete(c.hostAttrs, r)
	c.host.Free(r)
}

// MallocManaged allocates unified memory: a host region whose pages migrate
// to a device mirror on demand. The region is GPU-writable, so stage 3
// treats it like a device-to-host transfer target; the Call carries the host
// range for that purpose.
func (c *Context) MallocManaged(n int, label string) (*memory.Region, error) {
	call := c.beginCall(FuncMallocManaged, KindAlloc)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.ManagedAllocCost)
	r := c.host.Alloc(n, label)
	c.hostAttrs[r] = HostManaged
	mirror, err := c.devs[c.cur].Malloc(n, label+" (managed mirror)")
	if err != nil {
		c.host.Free(r)
		delete(c.hostAttrs, r)
		return nil, err
	}
	c.managed[r] = mirror
	call.HostAddr = r.Base()
	call.HostSize = n
	c.touchInternal(FuncInternalAlloc)
	return r, nil
}

// FreeManaged releases a managed allocation (host region and device mirror).
// Like Free, it synchronizes implicitly.
func (c *Context) FreeManaged(r *memory.Region) error {
	mirror, ok := c.managed[r]
	if !ok {
		return fmt.Errorf("cuda: FreeManaged of non-managed region %q", r.Label())
	}
	call := c.beginCall(FuncFree, KindFree)
	defer c.endCall(call)
	c.internalSync(c.devs[c.cur].BusyUntil(), SyncImplicit, call)
	c.clock.Advance(c.cfg.FreeCost)
	delete(c.managed, r)
	delete(c.hostAttrs, r)
	c.host.Free(r)
	return c.devs[c.cur].FreeBuf(mirror)
}

func (c *Context) fillTransfer(call *Call, dir TransferDir, n int, hostAddr memory.Addr, hostSize int, dev gpu.DevPtr, stream gpu.StreamID) {
	call.Dir = dir
	call.Bytes = n
	call.HostAddr = hostAddr
	call.HostSize = hostSize
	call.DevPtr = dev
	call.Stream = stream
}

// MemcpyH2D is a synchronous host-to-device copy. Synchronous transfers
// perform an implicit synchronization that CUPTI does not report (§2.2).
func (c *Context) MemcpyH2D(dst gpu.DevPtr, src memory.Addr, n int) error {
	if c.elided(FuncMemcpy) {
		return nil
	}
	call := c.beginCall(FuncMemcpy, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.host.View(src, n)
	if err != nil {
		return err
	}
	if err := c.devWrite(c.devs[c.cur], dst, c.viewBytes(v), n); err != nil {
		return err
	}
	c.fillTransfer(call, DirH2D, n, src, n, dst, gpu.LegacyStream)
	c.capture(call, v)
	op := c.devs[c.cur].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyH2D, "memcpy HtoD", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(op.End, SyncImplicit, call)
	return nil
}

// MemcpyD2H is a synchronous device-to-host copy. The destination host
// range becomes GPU-writable for stage 3's purposes.
func (c *Context) MemcpyD2H(dst memory.Addr, src gpu.DevPtr, n int) error {
	if c.elided(FuncMemcpy) {
		return nil
	}
	call := c.beginCall(FuncMemcpy, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.devs[c.cur].DevView(src, n)
	if err != nil {
		return err
	}
	c.fillTransfer(call, DirD2H, n, dst, n, src, gpu.LegacyStream)
	c.capture(call, v)
	op := c.devs[c.cur].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyD2H, "memcpy DtoH", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(op.End, SyncImplicit, call)
	return c.hostWrite(dst, v, n)
}

// MemcpyD2D is a synchronous device-to-device copy.
func (c *Context) MemcpyD2D(dst, src gpu.DevPtr, n int) error {
	if c.elided(FuncMemcpy) {
		return nil
	}
	call := c.beginCall(FuncMemcpy, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.devs[c.cur].DevView(src, n)
	if err != nil {
		return err
	}
	if err := c.devWrite(c.devs[c.cur], dst, c.viewBytes(v), n); err != nil {
		return err
	}
	call.Dir = DirD2D
	call.Bytes = n
	call.DevPtr = dst
	op := c.devs[c.cur].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyD2D, "memcpy DtoD", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(op.End, SyncImplicit, call)
	return nil
}

// MemcpyAsyncH2D is an asynchronous host-to-device copy. The source is
// staged at call time, so the call returns after CPU setup cost only.
func (c *Context) MemcpyAsyncH2D(dst gpu.DevPtr, src memory.Addr, n int, stream gpu.StreamID) error {
	if c.elided(FuncMemcpyAsync) {
		return nil
	}
	call := c.beginCall(FuncMemcpyAsync, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.host.View(src, n)
	if err != nil {
		return err
	}
	if err := c.devWrite(c.devs[c.cur], dst, c.viewBytes(v), n); err != nil {
		return err
	}
	c.fillTransfer(call, DirH2D, n, src, n, dst, stream)
	c.capture(call, v)
	op := c.devs[c.cur].EnqueueCopy(stream, gpu.OpCopyH2D, "memcpy HtoD async", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	return nil
}

// MemcpyAsyncD2H is an asynchronous device-to-host copy — *conditionally*.
// When the destination was not allocated with cudaMallocHost, the driver
// silently performs a full synchronous transfer (§2.2: "cudaMemcpyAsync
// performs an unreported synchronization when a device-to-host transfer is
// performed to a CPU memory address not allocated via cudaMallocHost").
func (c *Context) MemcpyAsyncD2H(dst memory.Addr, src gpu.DevPtr, n int, stream gpu.StreamID) error {
	if c.elided(FuncMemcpyAsync) {
		return nil
	}
	call := c.beginCall(FuncMemcpyAsync, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.devs[c.cur].DevView(src, n)
	if err != nil {
		return err
	}
	c.fillTransfer(call, DirD2H, n, dst, n, src, stream)
	c.capture(call, v)
	op := c.devs[c.cur].EnqueueCopy(stream, gpu.OpCopyD2H, "memcpy DtoH async", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	if c.HostAttrOf(dst) != HostPinned {
		c.internalSync(op.End, SyncConditional, call)
	}
	return c.hostWrite(dst, v, n)
}

// MemsetDev fills device memory asynchronously on the legacy stream.
func (c *Context) MemsetDev(ptr gpu.DevPtr, v byte, n int) error {
	if c.elided(FuncMemset) {
		return nil
	}
	call := c.beginCall(FuncMemset, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemsetSetupCost)
	if err := c.devs[c.cur].DevFill(ptr, v, n); err != nil {
		return err
	}
	call.DevPtr = ptr
	call.Bytes = n
	op := c.devs[c.cur].EnqueueMemset(gpu.LegacyStream, "memset", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	return nil
}

// MemsetManaged fills unified memory addressed on the host side. cudaMemset
// on a unified address synchronizes with the device (§5.1, the AMG finding),
// another conditional synchronization invisible to CUPTI.
func (c *Context) MemsetManaged(addr memory.Addr, v byte, n int) error {
	if c.elided(FuncMemset) {
		return nil
	}
	call := c.beginCall(FuncMemset, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemsetSetupCost)
	r := c.host.RegionAt(addr)
	if r == nil || c.hostAttrs[r] != HostManaged {
		return fmt.Errorf("cuda: MemsetManaged on non-managed address %#x", addr)
	}
	if err := c.host.Fill(addr, v, n); err != nil {
		return err
	}
	mirror := c.managed[r]
	if err := c.devs[c.cur].DevFill(mirror.Base()+gpu.DevPtr(addr-r.Base()), v, n); err != nil {
		return err
	}
	call.HostAddr = addr
	call.HostSize = n
	call.Bytes = n
	op := c.devs[c.cur].EnqueueMemset(gpu.LegacyStream, "memset managed", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(op.End, SyncConditional, call)
	return nil
}

// KernelWrite declares a device range a kernel overwrites; in a process
// that keeps content the simulator fills it with seed-derived bytes so
// later transfers carry real content. Otherwise only the range is checked.
type KernelWrite struct {
	Ptr  gpu.DevPtr
	Size int
	Seed uint64
}

// KernelSpec describes a kernel launch.
type KernelSpec struct {
	Name     string
	Duration simtime.Duration
	Stream   gpu.StreamID
	Writes   []KernelWrite
}

// LaunchKernel enqueues a kernel asynchronously. Launches never synchronize,
// so Diogenes collects no data on them (§5.2). The returned *Op follows
// gpu.Op's lifetime rule: in a process without an op log it is valid only
// until the device's next operation.
func (c *Context) LaunchKernel(spec KernelSpec) (*gpu.Op, error) {
	call := c.beginCall(FuncLaunchKernel, KindLaunch)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.LaunchCost)
	call.Stream = spec.Stream
	for _, w := range spec.Writes {
		if err := c.devWrite(c.devs[c.cur], w.Ptr, c.kernelBytes(w), w.Size); err != nil {
			return nil, err
		}
	}
	op := c.devs[c.cur].EnqueueKernel(spec.Stream, spec.Name, spec.Duration)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	return op, nil
}

// kernelBytes generates w's content into the context's scratch buffer,
// growing it on demand, or returns nil in a process that keeps no content.
// The slice is valid until the next call; DevWrite copies it and keeps no
// reference.
func (c *Context) kernelBytes(w KernelWrite) []byte {
	if !c.content {
		return nil
	}
	if cap(c.scratch) < w.Size {
		c.scratch = make([]byte, w.Size)
	}
	buf := c.scratch[:w.Size]
	simtime.NewRNG(w.Seed).Bytes(buf)
	return buf
}

// DeviceSynchronize blocks until all device work completes. Explicit — the
// one scope CUPTI does report.
func (c *Context) DeviceSynchronize() {
	if c.elided(FuncDeviceSync) {
		return
	}
	call := c.beginCall(FuncDeviceSync, KindSync)
	defer c.endCall(call)
	c.internalSync(c.devs[c.cur].BusyUntil(), SyncExplicit, call)
}

// ThreadSynchronize is the deprecated spelling of DeviceSynchronize still
// used by Rodinia's gaussian benchmark (§5.1).
func (c *Context) ThreadSynchronize() {
	if c.elided(FuncThreadSync) {
		return
	}
	call := c.beginCall(FuncThreadSync, KindSync)
	defer c.endCall(call)
	c.internalSync(c.devs[c.cur].BusyUntil(), SyncExplicit, call)
}

// StreamSynchronize blocks until the stream's queued work completes.
func (c *Context) StreamSynchronize(s gpu.StreamID) {
	if c.elided(FuncStreamSync) {
		return
	}
	call := c.beginCall(FuncStreamSync, KindSync)
	defer c.endCall(call)
	c.internalSync(c.devs[c.cur].StreamBusyUntil(s), SyncExplicit, call)
}

// FuncGetAttributes models the metadata query cuIBM's libraries issue
// millions of times (it appears in Table 2's HPCToolkit column). Pure CPU
// cost; no synchronization, no transfer.
func (c *Context) FuncGetAttributes(kernel string) {
	call := c.beginCall(FuncFuncGetAttributes, KindOther)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.AttrCost)
	_ = kernel
}

// SetDevice selects the current device, like cudaSetDevice. Streams,
// allocations and synchronizations issued afterwards target it. Each
// device keeps its own stream namespace; the legacy stream exists on all.
func (c *Context) SetDevice(i int) error {
	call := c.beginCall(FuncSetDevice, KindOther)
	defer c.endCall(call)
	if i < 0 || i >= len(c.devs) {
		return fmt.Errorf("cuda: SetDevice(%d) with %d devices", i, len(c.devs))
	}
	c.cur = i
	return nil
}

// MemcpyPeer copies between two devices' memories (cudaMemcpyPeer): a
// device-to-device transfer that synchronizes the calling thread with both
// queues, implicitly.
func (c *Context) MemcpyPeer(dstDev int, dst gpu.DevPtr, srcDev int, src gpu.DevPtr, n int) error {
	if c.elided(FuncMemcpyPeer) {
		return nil
	}
	call := c.beginCall(FuncMemcpyPeer, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	if dstDev < 0 || dstDev >= len(c.devs) || srcDev < 0 || srcDev >= len(c.devs) {
		return fmt.Errorf("cuda: MemcpyPeer devices %d->%d with %d devices", srcDev, dstDev, len(c.devs))
	}
	v, err := c.devs[srcDev].DevView(src, n)
	if err != nil {
		return err
	}
	if err := c.devWrite(c.devs[dstDev], dst, c.viewBytes(v), n); err != nil {
		return err
	}
	call.Dir = DirD2D
	call.Bytes = n
	call.DevPtr = dst
	// The transfer occupies both devices' legacy queues; completion is the
	// later of the two. Each op is reported before the next enqueue, which
	// may reuse it when source and destination are one device.
	srcOp := c.devs[srcDev].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyD2D, "memcpy peer (src)", n)
	srcEnd := srcOp.End
	c.reportOp(srcOp)
	dstOp := c.devs[dstDev].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyD2D, "memcpy peer (dst)", n)
	c.reportOp(dstOp)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(simtime.Max(srcEnd, dstOp.End), SyncImplicit, call)
	return nil
}
