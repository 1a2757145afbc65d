package cuda

import (
	"errors"
	"reflect"
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

type env struct {
	clock *simtime.Clock
	dev   *gpu.Device
	host  *memory.Space
	stack *callstack.Stack
	ctx   *Context
}

func newEnv() *env {
	clock := simtime.NewClock()
	dev := gpu.New(clock, gpu.DefaultConfig())
	host := memory.NewSpace()
	stack := callstack.New()
	stack.Push("main", "main.cpp", 1)
	return &env{
		clock: clock, dev: dev, host: host, stack: stack,
		ctx: NewContext(clock, dev, host, stack, DefaultConfig()),
	}
}

// syncRecorder records every internal-sync observation, the way Diogenes'
// stage probes do.
type syncRecorder struct {
	scopes []SyncScope
	waits  []simtime.Duration
}

func (r *syncRecorder) attach(c *Context) {
	c.AttachProbe(FuncInternalSync, Probe{Exit: func(call *Call) {
		r.scopes = append(r.scopes, call.Scope)
		r.waits = append(r.waits, call.SyncWait())
	}})
}

func TestMemcpySynchronizesImplicitly(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	src := e.host.Alloc(1<<20, "src")
	dst, err := e.ctx.Malloc(1<<20, "dst")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.MemcpyH2D(dst.Base(), src.Base(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 1 || rec.scopes[0] != SyncImplicit {
		t.Fatalf("scopes = %v, want [implicit]", rec.scopes)
	}
	if rec.waits[0] <= 0 {
		t.Fatal("memcpy sync wait should be positive")
	}
}

func TestMemcpyMovesData(t *testing.T) {
	e := newEnv()
	src := e.host.Alloc(64, "src")
	dst := e.host.Alloc(64, "dst")
	buf, _ := e.ctx.Malloc(64, "dev")
	want := []byte("round trip through the device")
	if err := e.host.Poke(src.Base(), want); err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.MemcpyH2D(buf.Base(), src.Base(), len(want)); err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.MemcpyD2H(dst.Base(), buf.Base(), len(want)); err != nil {
		t.Fatal(err)
	}
	got, _ := e.host.Peek(dst.Base(), len(want))
	if string(got) != string(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFreeImplicitlySynchronizes(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	buf, _ := e.ctx.Malloc(1024, "tmp")
	// Queue long-running work, then free: the free must wait it out.
	op, err := e.ctx.LaunchKernel(KernelSpec{Name: "long", Duration: 10 * simtime.Millisecond, Stream: gpu.LegacyStream})
	if err != nil {
		t.Fatal(err)
	}
	before := e.clock.Now()
	if err := e.ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	if e.clock.Now() < op.End {
		t.Fatalf("Free returned at %v, before kernel end %v", e.clock.Now(), op.End)
	}
	if len(rec.scopes) != 1 || rec.scopes[0] != SyncImplicit {
		t.Fatalf("scopes = %v", rec.scopes)
	}
	if rec.waits[0] < op.End.Sub(before)-e.ctx.Config().CallOverhead*4 {
		t.Fatalf("wait %v did not cover queued work", rec.waits[0])
	}
}

func TestMemcpyAsyncH2DDoesNotSync(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	src := e.host.Alloc(1<<20, "src")
	buf, _ := e.ctx.Malloc(1<<20, "dev")
	s := e.ctx.StreamCreate()
	if err := e.ctx.MemcpyAsyncH2D(buf.Base(), src.Base(), 1<<20, s); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 0 {
		t.Fatalf("async H2D synchronized: %v", rec.scopes)
	}
	if e.dev.StreamBusyUntil(s) <= e.clock.Now() {
		t.Fatal("async copy left no pending device work")
	}
}

func TestMemcpyAsyncD2HPinnedIsAsync(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	pinned := e.ctx.MallocHost(1<<20, "pinned dst")
	buf, _ := e.ctx.Malloc(1<<20, "dev")
	s := e.ctx.StreamCreate()
	if err := e.ctx.MemcpyAsyncD2H(pinned.Base(), buf.Base(), 1<<20, s); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 0 {
		t.Fatalf("pinned async D2H synchronized: %v", rec.scopes)
	}
}

func TestMemcpyAsyncD2HPageableConditionallySyncs(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	pageable := e.host.Alloc(1<<20, "pageable dst")
	buf, _ := e.ctx.Malloc(1<<20, "dev")
	s := e.ctx.StreamCreate()
	if err := e.ctx.MemcpyAsyncD2H(pageable.Base(), buf.Base(), 1<<20, s); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 1 || rec.scopes[0] != SyncConditional {
		t.Fatalf("scopes = %v, want [conditional]", rec.scopes)
	}
}

func TestMemsetManagedConditionallySyncs(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	r, err := e.ctx.MallocManaged(4096, "unified")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.MemsetManaged(r.Base(), 0, 4096); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 1 || rec.scopes[0] != SyncConditional {
		t.Fatalf("scopes = %v, want [conditional]", rec.scopes)
	}
	got, _ := e.host.Peek(r.Base(), 4)
	for _, b := range got {
		if b != 0 {
			t.Fatal("memset did not fill host side")
		}
	}
}

func TestMemsetManagedRejectsPageable(t *testing.T) {
	e := newEnv()
	r := e.host.Alloc(64, "plain")
	if err := e.ctx.MemsetManaged(r.Base(), 0, 64); err == nil {
		t.Fatal("MemsetManaged accepted pageable memory")
	}
}

func TestMemsetDevIsAsync(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	buf, _ := e.ctx.Malloc(4096, "dev")
	if err := e.ctx.MemsetDev(buf.Base(), 0xFF, 4096); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 0 {
		t.Fatalf("device memset synchronized: %v", rec.scopes)
	}
	got, _ := e.dev.DevRead(buf.Base(), 1)
	if got[0] != 0xFF {
		t.Fatal("memset did not fill device memory")
	}
}

func TestExplicitSyncs(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	s := e.ctx.StreamCreate()
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: s})
	e.ctx.StreamSynchronize(s)
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "k2", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	e.ctx.DeviceSynchronize()
	e.ctx.ThreadSynchronize()
	if len(rec.scopes) != 3 {
		t.Fatalf("got %d syncs, want 3", len(rec.scopes))
	}
	for i, s := range rec.scopes {
		if s != SyncExplicit {
			t.Fatalf("scope %d = %v", i, s)
		}
	}
	// Third sync found no pending work: zero wait.
	if rec.waits[2] != 0 {
		t.Fatalf("idle sync waited %v", rec.waits[2])
	}
}

func TestPrivateAPISynchronizesThroughFunnel(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	e.ctx.PrivateGemm("gemm", simtime.Millisecond, gpu.LegacyStream, true)
	dst := e.host.Alloc(4096, "result")
	buf, _ := e.ctx.Malloc(4096, "dev")
	if err := e.ctx.PrivateMemcpyD2H(dst.Base(), buf.Base(), 4096); err != nil {
		t.Fatal(err)
	}
	if len(rec.scopes) != 2 {
		t.Fatalf("got %d syncs, want 2", len(rec.scopes))
	}
	for _, s := range rec.scopes {
		if s != SyncPrivate {
			t.Fatalf("scope = %v, want private", s)
		}
	}
}

func TestHangOnNeverCompletingKernel(t *testing.T) {
	e := newEnv()
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "spin", Duration: simtime.Duration(simtime.Infinity), Stream: gpu.LegacyStream})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("DeviceSynchronize on infinite kernel did not hang")
		}
		h, ok := v.(HangError)
		if !ok {
			t.Fatalf("panic value %T, want HangError", v)
		}
		if h.Func != FuncDeviceSync {
			t.Fatalf("hang func = %v", h.Func)
		}
		if h.Error() == "" {
			t.Fatal("empty error text")
		}
	}()
	e.ctx.DeviceSynchronize()
}

func TestProbeEntryExitOrder(t *testing.T) {
	e := newEnv()
	var events []string
	e.ctx.AttachProbe(FuncMalloc, Probe{
		Entry: func(c *Call) { events = append(events, "entry") },
		Exit:  func(c *Call) { events = append(events, "exit") },
	})
	e.ctx.AttachProbe(FuncMalloc, Probe{Exit: func(c *Call) { events = append(events, "second exit") }})
	if _, err := e.ctx.Malloc(64, "x"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"entry", "exit", "second exit"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v (probes fire in attach order)", events, want)
	}
	// Only the probed function fires.
	buf, err := e.ctx.Malloc(64, "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.Free(buf); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("events after a second malloc and a free = %v", events)
	}
}

func TestProbeOverheadAdvancesClock(t *testing.T) {
	e := newEnv()
	e.ctx.AttachProbe(FuncMalloc, Probe{Overhead: 50 * simtime.Microsecond})
	before := e.clock.Now()
	_, _ = e.ctx.Malloc(64, "x")
	instrumented := e.clock.Now().Sub(before)

	e2 := newEnv()
	before2 := e2.clock.Now()
	_, _ = e2.ctx.Malloc(64, "x")
	plain := e2.clock.Now().Sub(before2)

	if instrumented != plain+100*simtime.Microsecond { // entry + exit
		t.Fatalf("instrumented %v, plain %v", instrumented, plain)
	}
}

func TestStackCaptureOnlyWhenEnabled(t *testing.T) {
	e := newEnv()
	var got callstack.Trace
	e.ctx.AttachProbe(FuncMalloc, Probe{Entry: func(c *Call) { got = c.Stack }})
	_, _ = e.ctx.Malloc(64, "x")
	if got != nil {
		t.Fatal("stack captured with capture disabled")
	}
	e.ctx.SetStackCapture(true)
	e.stack.Push("allocTemp", "solver.cpp", 42)
	_, _ = e.ctx.Malloc(64, "y")
	e.stack.Pop()
	if len(got) != 2 || got[0].Function != "allocTemp" {
		t.Fatalf("stack = %v", got)
	}
}

func TestPayloadCapture(t *testing.T) {
	e := newEnv()
	var payload []byte
	e.ctx.AttachProbe(FuncMemcpy, Probe{Exit: func(c *Call) { payload = c.Payload.Data }})
	src := e.host.Alloc(16, "src")
	_ = e.host.Poke(src.Base(), []byte("abcdefgh"))
	buf, _ := e.ctx.Malloc(16, "dev")
	if err := e.ctx.MemcpyH2D(buf.Base(), src.Base(), 8); err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		t.Fatal("payload captured with capture disabled")
	}
	e.ctx.SetPayloadCapture(true)
	if err := e.ctx.MemcpyH2D(buf.Base(), src.Base(), 8); err != nil {
		t.Fatal(err)
	}
	if string(payload) != "abcdefgh" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestTransferCallMetadata(t *testing.T) {
	e := newEnv()
	var call Call
	e.ctx.AttachProbe(FuncMemcpy, Probe{Exit: func(c *Call) { call = *c }})
	dst := e.host.Alloc(4096, "host dst")
	buf, _ := e.ctx.Malloc(4096, "dev")
	if err := e.ctx.MemcpyD2H(dst.Base(), buf.Base(), 4096); err != nil {
		t.Fatal(err)
	}
	if call.Kind != KindTransfer || call.Dir != DirD2H || call.Bytes != 4096 {
		t.Fatalf("call = %+v", call)
	}
	if call.HostAddr != dst.Base() || call.HostSize != 4096 || call.DevPtr != buf.Base() {
		t.Fatalf("addresses wrong: %+v", call)
	}
	if call.Duration() <= 0 || call.SyncWait() <= 0 {
		t.Fatalf("durations: total=%v sync=%v", call.Duration(), call.SyncWait())
	}
	if call.SyncWait() > call.Duration() {
		t.Fatal("sync wait exceeds call duration")
	}
}

func TestCallCountsAndTime(t *testing.T) {
	e := newEnv()
	var l callLog
	l.attach(e.ctx)
	l.start(e.clock.Now())
	_, _ = e.ctx.Malloc(64, "a")
	_, _ = e.ctx.Malloc(64, "b")
	e.ctx.DeviceSynchronize()
	counts := l.driverCalls()
	if counts[FuncMalloc] != 2 || counts[FuncDeviceSync] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if e.ctx.TotalCalls() != 3 {
		t.Fatalf("TotalCalls = %d", e.ctx.TotalCalls())
	}
	for _, r := range l.listened {
		if r.fn == FuncMalloc && r.end <= r.start {
			t.Fatal("no time attributed to cudaMalloc")
		}
	}
}

func TestManagedLifecycle(t *testing.T) {
	e := newEnv()
	r, err := e.ctx.MallocManaged(4096, "unified")
	if err != nil {
		t.Fatal(err)
	}
	if e.ctx.HostAttrOf(r.Base()) != HostManaged {
		t.Fatalf("attr = %v", e.ctx.HostAttrOf(r.Base()))
	}
	if live := e.dev.MemStats().LiveBytes; live != 4096 {
		t.Fatalf("device holds %d live bytes, want the 4096-byte mirror", live)
	}
	if err := e.ctx.FreeManaged(r); err != nil {
		t.Fatal(err)
	}
	if live := e.dev.MemStats().LiveBytes; live != 0 {
		t.Fatalf("device holds %d live bytes after FreeManaged, want 0", live)
	}
	if !r.Freed() {
		t.Fatal("host region not freed")
	}
	if err := e.ctx.FreeManaged(r); err == nil {
		t.Fatal("double FreeManaged succeeded")
	}
}

func TestMallocManagedOOMRollsBack(t *testing.T) {
	clock := simtime.NewClock()
	cfg := gpu.DefaultConfig()
	cfg.MemoryBytes = 1024
	dev := gpu.New(clock, cfg)
	host := memory.NewSpace()
	ctx := NewContext(clock, dev, host, callstack.New(), DefaultConfig())
	if _, err := ctx.MallocManaged(1<<20, "big"); !errors.Is(err, gpu.ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
}

func TestHostAttrDefaults(t *testing.T) {
	e := newEnv()
	r := e.host.Alloc(64, "plain")
	if e.ctx.HostAttrOf(r.Base()) != HostPageable {
		t.Fatal("plain region not pageable")
	}
	if e.ctx.HostAttrOf(memory.Addr(1)) != HostPageable {
		t.Fatal("unmapped addr not pageable")
	}
	p := e.ctx.MallocHost(64, "pin")
	if e.ctx.HostAttrOf(p.Base()) != HostPinned {
		t.Fatal("pinned region not pinned")
	}
	e.ctx.FreeHost(p)
	if !p.Freed() {
		t.Fatal("FreeHost did not free")
	}
}

func TestFuncClassification(t *testing.T) {
	if !FuncMemcpy.IsPublic() || FuncInternalSync.IsPublic() || FuncPrivateGemm.IsPublic() {
		t.Fatal("IsPublic wrong")
	}
	if !FuncInternalSync.IsInternal() || FuncMemcpy.IsInternal() {
		t.Fatal("IsInternal wrong")
	}
	if !FuncPrivateGemm.IsPrivate() || !FuncPrivateMemcpy.IsPrivate() || FuncMemcpy.IsPrivate() {
		t.Fatal("IsPrivate wrong")
	}
}

func TestScopeStringsAndVisibility(t *testing.T) {
	if SyncExplicit.String() != "explicit" || SyncImplicit.String() != "implicit" ||
		SyncConditional.String() != "conditional" || SyncPrivate.String() != "private" ||
		SyncNone.String() != "none" {
		t.Fatal("scope strings wrong")
	}
	if !SyncExplicit.CUPTIVisible() {
		t.Fatal("explicit syncs must be CUPTI visible")
	}
	for _, s := range []SyncScope{SyncNone, SyncImplicit, SyncConditional, SyncPrivate} {
		if s.CUPTIVisible() {
			t.Fatalf("%v must be CUPTI invisible", s)
		}
	}
}

func TestKindAndDirStrings(t *testing.T) {
	if KindSync.String() != "sync" || KindTransfer.String() != "transfer" ||
		KindAlloc.String() != "alloc" || KindFree.String() != "free" ||
		KindLaunch.String() != "launch" || KindOther.String() != "other" {
		t.Fatal("kind strings wrong")
	}
	if DirH2D.String() != "HtoD" || DirD2H.String() != "DtoH" || DirD2D.String() != "DtoD" || DirNone.String() != "none" {
		t.Fatal("dir strings wrong")
	}
}

func TestKernelWritesProduceContent(t *testing.T) {
	e := newEnv()
	buf, _ := e.ctx.Malloc(256, "out")
	_, err := e.ctx.LaunchKernel(KernelSpec{
		Name: "fill", Duration: simtime.Microsecond, Stream: gpu.LegacyStream,
		Writes: []KernelWrite{{Ptr: buf.Base(), Size: 256, Seed: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.dev.DevRead(buf.Base(), 256)
	want := make([]byte, 256)
	simtime.NewRNG(7).Bytes(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel output byte %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestInternalDecoysFireWhenProbed(t *testing.T) {
	e := newEnv()
	hits := map[Func]int{}
	for _, fn := range InternalFuncs {
		fn := fn
		e.ctx.AttachProbe(fn, Probe{Entry: func(*Call) { hits[fn]++ }})
	}
	buf, _ := e.ctx.Malloc(1024, "x")
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: simtime.Microsecond, Stream: gpu.LegacyStream})
	e.ctx.DeviceSynchronize()
	_ = e.ctx.Free(buf)
	if hits[FuncInternalAlloc] == 0 {
		t.Fatal("alloc-track internal never fired")
	}
	if hits[FuncInternalEnqueue] == 0 {
		t.Fatal("enqueue internal never fired")
	}
	if hits[FuncInternalSync] != 2 { // DeviceSynchronize + Free
		t.Fatalf("sync internal fired %d times, want 2", hits[FuncInternalSync])
	}
}

func TestD2DCopy(t *testing.T) {
	e := newEnv()
	a, _ := e.ctx.Malloc(64, "a")
	b, _ := e.ctx.Malloc(64, "b")
	_ = e.dev.DevWrite(a.Base(), []byte("payload"))
	if err := e.ctx.MemcpyD2D(b.Base(), a.Base(), 7); err != nil {
		t.Fatal(err)
	}
	got, _ := e.dev.DevRead(b.Base(), 7)
	if string(got) != "payload" {
		t.Fatalf("D2D copy = %q", got)
	}
}

func TestFuncGetAttributesIsPureCPU(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	before := e.clock.Now()
	e.ctx.FuncGetAttributes("kern")
	if e.clock.Now() == before {
		t.Fatal("FuncGetAttributes had no CPU cost")
	}
	if len(rec.scopes) != 0 {
		t.Fatal("FuncGetAttributes synchronized")
	}
}

func TestInternalSyncSeesCaller(t *testing.T) {
	e := newEnv()
	var callers []Func
	e.ctx.AttachProbe(FuncInternalSync, Probe{Exit: func(c *Call) { callers = append(callers, c.Caller) }})
	buf, _ := e.ctx.Malloc(64, "x")
	e.ctx.DeviceSynchronize()
	_ = e.ctx.Free(buf)
	if len(callers) != 2 || callers[0] != FuncDeviceSync || callers[1] != FuncFree {
		t.Fatalf("callers = %v", callers)
	}
}
