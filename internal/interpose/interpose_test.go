package interpose

import (
	"errors"
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/obs"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

type env struct {
	clock *simtime.Clock
	dev   *gpu.Device
	host  *memory.Space
	stack *callstack.Stack
	ctx   *cuda.Context
}

func newEnv() *env {
	clock := simtime.NewClock()
	dev := gpu.New(clock, gpu.DefaultConfig())
	host := memory.NewSpace()
	stack := callstack.New()
	stack.Push("main", "main.cpp", 1)
	return &env{clock: clock, dev: dev, host: host, stack: stack,
		ctx: cuda.NewContext(clock, dev, host, stack, cuda.DefaultConfig())}
}

// accesses returns the watched-access counter a tracker reports to reg.
func accesses(reg *obs.Registry) int64 { return reg.Counter("interpose/accesses").Value() }

func freshCtx() *cuda.Context {
	return newEnv().ctx
}

func TestDiscoverFindsSyncFunnel(t *testing.T) {
	fn, err := Discover(freshCtx)
	if err != nil {
		t.Fatal(err)
	}
	if fn != cuda.FuncInternalSync {
		t.Fatalf("Discover = %q, want %q", fn, cuda.FuncInternalSync)
	}
}

func TestDiscoverLeavesNoResidue(t *testing.T) {
	// Each trial uses its own context; the factory's contexts are
	// discarded, so discovery must not require any cleanup of the real one.
	calls := 0
	fn, err := Discover(func() *cuda.Context {
		calls++
		return freshCtx()
	})
	if err != nil || fn != cuda.FuncInternalSync {
		t.Fatalf("fn=%q err=%v", fn, err)
	}
	if calls != 3 {
		t.Fatalf("factory called %d times, want 3 (one per known sync API)", calls)
	}
}

func TestCallTracerRecordsSyncAndTransfer(t *testing.T) {
	e := newEnv()
	tr := NewCallTracer(e.ctx, []cuda.Func{cuda.FuncFree, cuda.FuncMemcpy, cuda.FuncDeviceSync}, TracerOptions{CaptureStacks: true})
	src := e.host.Alloc(1<<16, "src")
	buf, _ := e.ctx.Malloc(1<<16, "dev")
	_ = e.ctx.MemcpyH2D(buf.Base(), src.Base(), 1<<16)
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	e.ctx.DeviceSynchronize()
	_ = e.ctx.Free(buf)

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	if recs[0].Class != trace.ClassTransfer || recs[0].Func != "cudaMemcpy" {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[0].Dir != "HtoD" || recs[0].Bytes != 1<<16 {
		t.Fatalf("transfer metadata: %+v", recs[0])
	}
	if recs[1].Func != "cudaDeviceSynchronize" || recs[1].Class != trace.ClassSync || recs[1].SyncWait <= 0 {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[2].Func != "cudaFree" || recs[2].Scope != "implicit" {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("seq %d = %d", i, r.Seq)
		}
		if len(r.Stack) == 0 {
			t.Fatalf("record %d missing stack", i)
		}
	}
}

func TestCallTracerSkipsNonSyncNonTransfer(t *testing.T) {
	e := newEnv()
	tr := NewCallTracer(e.ctx, []cuda.Func{cuda.FuncMalloc, cuda.FuncLaunchKernel, cuda.FuncDeviceSync}, TracerOptions{})
	_, _ = e.ctx.Malloc(64, "x")
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Microsecond, Stream: gpu.LegacyStream})
	e.ctx.DeviceSynchronize()
	if tr.Count() != 1 {
		t.Fatalf("got %d records, want only the sync", tr.Count())
	}
	if tr.Records()[0].Func != "cudaDeviceSynchronize" {
		t.Fatalf("record = %+v", tr.Records()[0])
	}
}

func TestCallTracerOnRecordAnnotation(t *testing.T) {
	e := newEnv()
	tr := NewCallTracer(e.ctx, []cuda.Func{cuda.FuncDeviceSync}, TracerOptions{
		OnRecord: func(r *trace.Record, c *cuda.Call) { r.Hash = "annotated" },
	})
	e.ctx.DeviceSynchronize()
	if tr.Records()[0].Hash != "annotated" {
		t.Fatal("OnRecord annotation lost")
	}
}

func TestCallTracerOverheadSlowsRun(t *testing.T) {
	run := func(overhead simtime.Duration) simtime.Duration {
		e := newEnv()
		NewCallTracer(e.ctx, []cuda.Func{cuda.FuncDeviceSync}, TracerOptions{Overhead: overhead})
		start := e.clock.Now()
		for i := 0; i < 100; i++ {
			e.ctx.DeviceSynchronize()
		}
		return e.clock.Now().Sub(start)
	}
	plain, instrumented := run(0), run(20*simtime.Microsecond)
	if instrumented <= plain {
		t.Fatalf("instrumented %v not slower than plain %v", instrumented, plain)
	}
}

func TestPrivateFuncsTraceable(t *testing.T) {
	e := newEnv()
	tr := NewCallTracer(e.ctx, []cuda.Func{cuda.FuncPrivateGemm}, TracerOptions{})
	e.ctx.PrivateGemm("gemm", simtime.Millisecond, gpu.LegacyStream, true)
	if tr.Count() != 1 {
		t.Fatalf("private call not traced")
	}
	if tr.Records()[0].Scope != "private" {
		t.Fatalf("scope = %q", tr.Records()[0].Scope)
	}
}

func TestRangeTrackerFirstAccess(t *testing.T) {
	e := newEnv()
	var got []FirstAccess
	rt := NewRangeTracker(e.host, e.clock, 0, func(fa FirstAccess) { got = append(got, fa) })
	reg := obs.NewRegistry()
	rt.SetMetrics(reg)
	r := e.host.Alloc(4096, "gpu result")
	rt.AddRange(r.Base(), r.End())

	site1 := memory.Site{Function: "useResult", File: "als.cpp", Line: 877}
	site2 := memory.Site{Function: "useAgain", File: "als.cpp", Line: 900}

	rt.Arm()
	_, _ = e.host.Load(site1, r.Base(), 8)
	_, _ = e.host.Load(site2, r.Base(), 8) // second access: no report
	if len(got) != 1 {
		t.Fatalf("got %d reports, want 1", len(got))
	}
	if got[0].Site != site1 || got[0].Kind != memory.Load {
		t.Fatalf("report = %+v", got[0])
	}
	// Re-arm catches the next access.
	rt.Arm()
	_, _ = e.host.Load(site2, r.Base()+16, 8)
	if len(got) != 2 || got[1].Site != site2 {
		t.Fatalf("re-arm reports = %+v", got)
	}
	if n := accesses(reg); n != 3 {
		t.Fatalf("interpose/accesses = %d, want 3", n)
	}
}

func TestRangeTrackerIgnoresOtherMemory(t *testing.T) {
	e := newEnv()
	fired := 0
	rt := NewRangeTracker(e.host, e.clock, 0, func(FirstAccess) { fired++ })
	tracked := e.host.Alloc(64, "tracked")
	other := e.host.Alloc(64, "other")
	rt.AddRange(tracked.Base(), tracked.End())
	rt.Arm()
	_ = e.host.Store(memory.Site{Function: "f"}, other.Base(), []byte{1})
	if fired != 0 {
		t.Fatal("access outside tracked range fired")
	}
	_ = e.host.Store(memory.Site{Function: "f"}, tracked.Base(), []byte{1})
	if fired != 1 {
		t.Fatal("tracker disarmed by unrelated access")
	}
}

func TestRangeTrackerOverheadCharged(t *testing.T) {
	e := newEnv()
	rt := NewRangeTracker(e.host, e.clock, 5*simtime.Microsecond, nil)
	r := e.host.Alloc(64, "t")
	rt.AddRange(r.Base(), r.End())
	before := e.clock.Now()
	for i := 0; i < 10; i++ {
		_, _ = e.host.Load(memory.Site{Function: "f"}, r.Base(), 1)
	}
	if got := e.clock.Now().Sub(before); got != 50*simtime.Microsecond {
		t.Fatalf("overhead = %v, want 50µs", got)
	}
}

func TestDiscoverErrorWhenNothingBlocks(t *testing.T) {
	// A "broken driver" whose sync functions do not block: feed discovery a
	// context with no queued infinite kernel by wrapping the factory so the
	// launch goes to a side stream the sync call does not cover. Simplest
	// failure injection: a factory whose context panics differently is hard
	// to fake, so instead verify the error path by exhausting candidates —
	// run a single trial directly with a sync call that touches nothing.
	ctx := freshCtx()
	_, err := runDiscoveryTrial(ctx, func(c *cuda.Context) {
		// Known-sync call that doesn't reach the funnel (device untouched):
		// FuncGetAttributes never synchronizes.
		c.FuncGetAttributes("k")
	})
	if err == nil {
		t.Fatal("trial with non-blocking call should fail")
	}
	if errors.Is(err, ErrNoSyncFunction) {
		t.Fatal("wrong error class: candidate filtering happens in Discover")
	}
}

func TestRangeTrackerSiteFilter(t *testing.T) {
	e := newEnv()
	var got []FirstAccess
	rt := NewRangeTracker(e.host, e.clock, 10*simtime.Microsecond, func(fa FirstAccess) { got = append(got, fa) })
	reg := obs.NewRegistry()
	rt.SetMetrics(reg)
	r := e.host.Alloc(64, "tracked")
	rt.AddRange(r.Base(), r.End())

	wanted := memory.Site{Function: "useResult", File: "a.cpp", Line: 7}
	other := memory.Site{Function: "noise", File: "b.cpp", Line: 9}
	rt.FilterSites(map[memory.Site]bool{wanted: true})

	rt.Arm()
	before := e.clock.Now()
	// Non-matching site: no report, no overhead charge, stays armed.
	_, _ = e.host.Load(other, r.Base(), 4)
	if len(got) != 0 {
		t.Fatal("filtered site fired")
	}
	if e.clock.Now() != before {
		t.Fatal("filtered access charged overhead")
	}
	// Matching site fires, since the tracker is still armed, and is charged.
	_, _ = e.host.Load(wanted, r.Base(), 4)
	if len(got) != 1 || got[0].Site != wanted {
		t.Fatalf("reports = %+v", got)
	}
	if e.clock.Now() != before.Add(10*simtime.Microsecond) {
		t.Fatal("matching access not charged")
	}
	if n := accesses(reg); n != 1 {
		t.Fatalf("interpose/accesses = %d, want only matching ones", n)
	}
}

func TestRangeTrackerDedupsCoveredRanges(t *testing.T) {
	e := newEnv()
	rt := NewRangeTracker(e.host, e.clock, 0, nil)
	reg := obs.NewRegistry()
	rt.SetMetrics(reg)
	r := e.host.Alloc(4096, "buf")
	for i := 0; i < 100; i++ {
		rt.AddRange(r.Base(), r.End())
	}
	// One access into a range added 100 times is instrumented once.
	_, _ = e.host.Load(memory.Site{}, r.Base(), 1)
	if n := accesses(reg); n != 1 {
		t.Fatalf("interpose/accesses = %d after one access, want 1 (dedup)", n)
	}
	// A range not covered by an earlier one is still added.
	r2 := e.host.Alloc(4096, "buf2")
	rt.AddRange(r2.Base(), r2.End())
	_, _ = e.host.Load(memory.Site{}, r2.Base(), 1)
	if n := accesses(reg); n != 2 {
		t.Fatalf("interpose/accesses = %d after an access to the second range, want 2", n)
	}
}
