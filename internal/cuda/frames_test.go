package cuda

import (
	"bytes"
	"reflect"
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// TestUnprobedCallAllocations bounds what a driver call costs the host heap
// when nothing is attached: frames come from the context's free list and
// kernel writes are generated into its scratch buffer, so a launch allocates
// only the gpu.Op it returns and a pure-CPU call allocates nothing.
func TestUnprobedCallAllocations(t *testing.T) {
	e := newEnv()
	buf, err := e.ctx.Malloc(512, "out")
	if err != nil {
		t.Fatal(err)
	}
	spec := KernelSpec{
		Name: "k", Duration: simtime.Microsecond, Stream: gpu.LegacyStream,
		Writes: []KernelWrite{{Ptr: buf.Base(), Size: 512, Seed: 1}},
	}
	launch := testing.AllocsPerRun(100, func() {
		if _, err := e.ctx.LaunchKernel(spec); err != nil {
			t.Fatal(err)
		}
	})
	if launch > 1 {
		t.Errorf("LaunchKernel with one 512 B write: %v allocs/call, want <= 1 (the gpu.Op)", launch)
	}
	attrs := testing.AllocsPerRun(100, func() { e.ctx.FuncGetAttributes("k") })
	if attrs != 0 {
		t.Errorf("FuncGetAttributes: %v allocs/call, want 0", attrs)
	}

	// Without content and an op log a launch generates no bytes and reuses
	// the device's Op, so even a 1 MiB kernel write allocates nothing.
	te := newTimingEnv()
	big, err := te.ctx.Malloc(1<<20, "out")
	if err != nil {
		t.Fatal(err)
	}
	spec.Writes = []KernelWrite{{Ptr: big.Base(), Size: 1 << 20, Seed: 1}}
	if launch := testing.AllocsPerRun(100, func() {
		if _, err := te.ctx.LaunchKernel(spec); err != nil {
			t.Fatal(err)
		}
	}); launch != 0 {
		t.Errorf("timing-only LaunchKernel with a 1 MiB write: %v allocs/call, want 0", launch)
	}
}

// TestUniformPayloadUnread copies a never-written device buffer to the host
// with payload capture on. The probe must see a uniform payload, the buffer
// must stay uniform (the read materialises nothing), the host must receive
// its bytes, and a warm copy must allocate nothing.
func TestUniformPayloadUnread(t *testing.T) {
	clock := simtime.NewClock()
	dev := gpu.NewKeeping(clock, gpu.DefaultConfig(), gpu.Keep{Content: true})
	host := memory.NewSpace()
	ctx := NewContext(clock, dev, host, callstack.New(), DefaultConfig())
	ctx.SetPayloadCapture(true)
	const n = 96 << 10
	var payload memory.View
	ctx.AttachProbe(FuncMemcpy, Probe{Exit: func(c *Call) { payload = c.Payload }})
	src, err := ctx.Malloc(n, "never written")
	if err != nil {
		t.Fatal(err)
	}
	dst := host.Alloc(n, "host copy")
	if err := host.Poke(dst.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MemcpyD2H(dst.Base(), src.Base(), n); err != nil {
		t.Fatal(err)
	}
	if payload.Src != src || !payload.Uniform() || payload.Fill != 0 || payload.Len != n {
		t.Fatalf("payload: from the source %v, uniform %v, fill %d, len %d; want a uniform zero view of the source",
			payload.Src == src, payload.Uniform(), payload.Fill, payload.Len)
	}
	if v, err := dev.DevView(src.Base(), n); err != nil || !v.Uniform() {
		t.Fatalf("source after the copy: uniform=%v err=%v, want still uniform", v.Uniform(), err)
	}
	got, err := host.Peek(dst.Base(), n)
	if err != nil || !bytes.Equal(got, make([]byte, n)) {
		t.Fatalf("host copy does not hold the source's zeros (err %v)", err)
	}
	copyOnce := func() {
		if err := ctx.MemcpyD2H(dst.Base(), src.Base(), n); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, copyOnce); allocs != 0 {
		t.Errorf("warm captured D2H copy of a uniform buffer: %v allocs/call, want 0", allocs)
	}
	if v, _ := dev.DevView(src.Base(), n); !v.Uniform() {
		t.Fatal("repeated copies materialised the source")
	}
}

// TestNestedCallFrames issues a driver call from inside another call's exit
// probe. The inner call must get its own frame: the outer frame still reads
// its own fields after the inner call returns, and each sync funnel frame
// names the right caller.
func TestNestedCallFrames(t *testing.T) {
	e := newEnv()
	s := e.ctx.StreamCreate()
	src := e.host.Alloc(256, "src")
	dst, err := e.ctx.Malloc(256, "dst")
	if err != nil {
		t.Fatal(err)
	}
	var outerBefore, outerAfter, inner Call
	var syncs []Call
	nested := false
	e.ctx.AttachProbe(FuncMemcpy, Probe{Exit: func(c *Call) {
		outerBefore = *c
		if !nested {
			nested = true
			if _, err := e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: 40 * simtime.Microsecond, Stream: s}); err != nil {
				t.Fatal(err)
			}
			e.ctx.StreamSynchronize(s)
		}
		outerAfter = *c
	}})
	e.ctx.AttachProbe(FuncStreamSync, Probe{Exit: func(c *Call) { inner = *c }})
	e.ctx.AttachProbe(FuncInternalSync, Probe{Exit: func(c *Call) { syncs = append(syncs, *c) }})

	if err := e.ctx.MemcpyH2D(dst.Base(), src.Base(), 256); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outerBefore, outerAfter) {
		t.Fatalf("outer frame changed across the nested call:\nbefore %+v\nafter  %+v", outerBefore, outerAfter)
	}
	o := outerAfter
	if o.Func != FuncMemcpy || o.Kind != KindTransfer || o.Dir != DirH2D || o.Bytes != 256 {
		t.Fatalf("outer frame = %+v", o)
	}
	if o.Scope != SyncImplicit || o.SyncStart < o.Entry || o.SyncEnd < o.SyncStart || o.Exit < o.SyncEnd {
		t.Fatalf("outer sync fields = %+v", o)
	}
	if inner.Func != FuncStreamSync || inner.Kind != KindSync || inner.Scope != SyncExplicit {
		t.Fatalf("inner frame = %+v", inner)
	}
	if inner.Entry < o.Exit || inner.SyncWait() <= 0 || inner.Exit < inner.SyncEnd {
		t.Fatalf("inner timing = %+v (outer exit %v)", inner, o.Exit)
	}
	if inner.Bytes != 0 || inner.Dir != DirNone || inner.Caller != "" {
		t.Fatalf("inner frame carries stale fields: %+v", inner)
	}
	if len(syncs) != 2 || syncs[0].Caller != FuncMemcpy || syncs[1].Caller != FuncStreamSync {
		t.Fatalf("funnel callers = %+v", syncs)
	}
	if syncs[0].SyncStart != o.SyncStart || syncs[0].SyncEnd != o.SyncEnd ||
		syncs[1].SyncStart != inner.SyncStart || syncs[1].SyncEnd != inner.SyncEnd {
		t.Fatalf("funnel frames disagree with their callers: %+v", syncs)
	}
}

// callLog copies every frame its exit probes see and every call and sync
// the activity listener reports, with times relative to the start of
// recording.
type callLog struct {
	frames    []Call
	listened  []listenerRecord
	origin    simtime.Time
	recording bool
}

type listenerRecord struct {
	fn         Func
	sync       bool
	start, end simtime.Duration
}

func (l *callLog) attach(c *Context, fns ...Func) {
	for _, fn := range fns {
		c.AttachProbe(fn, Probe{Exit: func(call *Call) {
			if l.recording {
				l.frames = append(l.frames, l.shift(*call))
			}
		}})
	}
	c.SetListener(l)
}

// start begins recording, with times taken relative to now.
func (l *callLog) start(now simtime.Time) { l.origin, l.recording = now, true }

func (l *callLog) shift(c Call) Call {
	c.Entry -= l.origin
	c.Exit -= l.origin
	if c.Scope != SyncNone {
		c.SyncStart -= l.origin
		c.SyncEnd -= l.origin
	}
	return c
}

func (l *callLog) DriverCall(fn Func, entry, exit simtime.Time) {
	if l.recording {
		l.listened = append(l.listened, listenerRecord{fn, false, entry.Sub(l.origin), exit.Sub(l.origin)})
	}
}

func (l *callLog) SyncRecord(fn Func, start, end simtime.Time) {
	if l.recording {
		l.listened = append(l.listened, listenerRecord{fn, true, start.Sub(l.origin), end.Sub(l.origin)})
	}
}

func (l *callLog) DeviceOp(*gpu.Op) {}

// TestFramesAfterRecoveredHang runs one workload on a context that has just
// recovered a HangError, and on one that never hung. The hang abandons the
// sync funnel's frame mid-call; the frames and listener records that follow
// must match the clean context's, up to the shift in start time.
func TestFramesAfterRecoveredHang(t *testing.T) {
	workload := func(e *env, s gpu.StreamID) {
		host := e.host.Alloc(512, "host")
		buf, err := e.ctx.Malloc(512, "dev")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ctx.LaunchKernel(KernelSpec{
			Name: "k", Duration: 50 * simtime.Microsecond, Stream: s,
			Writes: []KernelWrite{{Ptr: buf.Base(), Size: 512, Seed: 3}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.ctx.MemcpyAsyncD2H(host.Base(), buf.Base(), 512, s); err != nil {
			t.Fatal(err)
		}
		e.ctx.StreamSynchronize(s)
		e.ctx.FuncGetAttributes("k")
	}
	run := func(hang bool) *callLog {
		e := newEnv()
		log := &callLog{}
		log.attach(e.ctx, FuncMalloc, FuncLaunchKernel, FuncMemcpyAsync, FuncStreamSync,
			FuncFuncGetAttributes, FuncInternalSync, FuncInternalEnqueue, FuncInternalAlloc)
		stuck := e.ctx.StreamCreate()
		if hang {
			if _, err := e.ctx.LaunchKernel(KernelSpec{Name: "spin", Duration: simtime.Duration(simtime.Infinity), Stream: stuck}); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if _, ok := recover().(HangError); !ok {
						t.Fatal("StreamSynchronize on the spin kernel did not hang")
					}
				}()
				e.ctx.StreamSynchronize(stuck)
			}()
		}
		s := e.ctx.StreamCreate()
		log.start(e.clock.Now())
		workload(e, s)
		return log
	}
	clean, recovered := run(false), run(true)
	if len(clean.frames) == 0 || len(clean.listened) == 0 {
		t.Fatal("workload produced no frames or records")
	}
	if !reflect.DeepEqual(recovered.frames, clean.frames) {
		t.Fatalf("frames after a recovered hang:\n%+v\nwant\n%+v", recovered.frames, clean.frames)
	}
	if !reflect.DeepEqual(recovered.listened, clean.listened) {
		t.Fatalf("listener records after a recovered hang:\n%+v\nwant\n%+v", recovered.listened, clean.listened)
	}
	var callers []Func
	for _, f := range recovered.frames {
		switch f.Func {
		case FuncInternalSync:
			callers = append(callers, f.Caller)
		case FuncFuncGetAttributes:
			if f.Scope != SyncNone || f.Bytes != 0 || f.Stream != 0 || f.HostSize != 0 {
				t.Fatalf("pure-CPU frame carries stale fields: %+v", f)
			}
		}
	}
	if want := []Func{FuncMemcpyAsync, FuncStreamSync}; !reflect.DeepEqual(callers, want) {
		t.Fatalf("funnel callers = %v, want %v", callers, want)
	}
}

// TestProbeAttachDetachAllocations pins the probe index's reuse: once a
// context has held a probe set, attaching and detaching a probe again
// allocates nothing, and the index still fires exactly the attached probes.
func TestProbeAttachDetachAllocations(t *testing.T) {
	e := newEnv()
	fired := map[Func]int{}
	count := func(c *Call) { fired[c.Func]++ }
	for _, fn := range []Func{FuncMalloc, FuncFree, FuncMemcpy} {
		e.ctx.AttachProbe(fn, Probe{Exit: count})
	}
	probe := Probe{Exit: count}
	cycle := func() { e.ctx.DetachProbe(e.ctx.AttachProbe(FuncMalloc, probe)) }
	cycle() // warm: the index slices reach their largest size
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm AttachProbe+DetachProbe: %v allocs/cycle, want 0", allocs)
	}

	buf, err := e.ctx.Malloc(64, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	if fired[FuncMalloc] != 1 || fired[FuncFree] != 1 || e.ctx.ProbeCount() != 3 {
		t.Fatalf("after attach/detach cycles: fired %v, %d probes attached", fired, e.ctx.ProbeCount())
	}
	e.ctx.DetachAllProbes()
	if _, err := e.ctx.Malloc(64, "y"); err != nil {
		t.Fatal(err)
	}
	if fired[FuncMalloc] != 1 {
		t.Fatal("a probe fired after DetachAllProbes")
	}
}
