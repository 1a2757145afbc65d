package cuda

import (
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// This file models the proprietary, non-public part of the driver used by
// vendor-created libraries (§2.2): "If an operation is performed via the
// proprietary non-public part of Nvidia's driver, the call and the operation
// it performs are not reported [by CUPTI]." The simulated nvblas library
// launches kernels and synchronizes through these entry points. The
// activity listener is never told about the calls; the only way a tool can
// observe the synchronization is by instrumenting the internal wait
// function — which is exactly what FFM does.

// PrivateGemm models a vendor-library matrix multiply: a kernel launched
// through the private API, optionally followed by a private blocking wait.
// CUPTI receives the device activity record for the kernel (the hardware
// counters see it) but no driver-call or synchronization record.
func (c *Context) PrivateGemm(name string, dur simtime.Duration, stream gpu.StreamID, syncAfter bool) *gpu.Op {
	call := c.beginCall(FuncPrivateGemm, KindLaunch)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.LaunchCost)
	call.Stream = stream
	op := c.devs[c.cur].EnqueueKernel(stream, name, dur)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	if syncAfter {
		c.internalSync(op.End, SyncPrivate, call)
	}
	return op
}

// PrivateMemcpyD2H models a vendor-library result readback through the
// private API: synchronous, unreported by CUPTI.
func (c *Context) PrivateMemcpyD2H(dst memory.Addr, src gpu.DevPtr, n int) error {
	call := c.beginCall(FuncPrivateMemcpy, KindTransfer)
	defer c.endCall(call)
	c.clock.Advance(c.cfg.MemcpySetupCost)
	v, err := c.devs[c.cur].DevView(src, n)
	if err != nil {
		return err
	}
	c.fillTransfer(call, DirD2H, n, dst, n, src, gpu.LegacyStream)
	c.capture(call, v)
	op := c.devs[c.cur].EnqueueCopy(gpu.LegacyStream, gpu.OpCopyD2H, "private memcpy DtoH", n)
	c.reportOp(op)
	c.touchInternal(FuncInternalEnqueue)
	c.internalSync(op.End, SyncPrivate, call)
	return c.hostWrite(dst, v, n)
}
