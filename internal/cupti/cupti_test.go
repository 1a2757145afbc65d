package cupti

import (
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

type env struct {
	clock *simtime.Clock
	host  *memory.Space
	ctx   *cuda.Context
	col   *Collector
}

func newEnv() *env {
	clock := simtime.NewClock()
	dev := gpu.New(clock, gpu.DefaultConfig())
	host := memory.NewSpace()
	ctx := cuda.NewContext(clock, dev, host, callstack.New(), cuda.DefaultConfig())
	col := New()
	ctx.SetListener(col)
	return &env{clock: clock, host: host, ctx: ctx, col: col}
}

// ofKind returns the collector's records of one kind, in order.
func ofKind(c *Collector, k ActivityKind) []Activity {
	var out []Activity
	for _, a := range c.Records() {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

func TestDriverCallsRecordedForPublicAPI(t *testing.T) {
	e := newEnv()
	buf, _ := e.ctx.Malloc(1024, "x")
	_ = e.ctx.Free(buf)
	calls := e.col.DriverCallsByFunc()
	if calls["cudaMalloc"] != 1 || calls["cudaFree"] != 1 {
		t.Fatalf("calls = %v", calls)
	}
	times := e.col.DriverTimeByFunc()
	if times["cudaMalloc"] <= 0 {
		t.Fatal("no time for cudaMalloc")
	}
}

func TestPrivateAPIInvisible(t *testing.T) {
	e := newEnv()
	e.ctx.PrivateGemm("gemm", simtime.Millisecond, gpu.LegacyStream, true)
	for _, a := range e.col.Records() {
		if a.Kind == ActivityDriverCall {
			t.Fatalf("private API produced driver record %q", a.Name)
		}
		if a.Kind == ActivitySynchronization {
			t.Fatalf("private sync produced sync record %q", a.Name)
		}
	}
	// But the kernel itself is visible to the hardware queues.
	if len(ofKind(e.col, ActivityKernel)) != 1 {
		t.Fatal("kernel activity missing")
	}
}

// TestImplicitSyncInvisible reproduces the core §2.2 gap: cudaMemcpy and
// cudaFree wait on the device but produce no synchronization record.
func TestImplicitSyncInvisible(t *testing.T) {
	e := newEnv()
	src := e.host.Alloc(1<<20, "src")
	buf, _ := e.ctx.Malloc(1<<20, "dev")
	if err := e.ctx.MemcpyH2D(buf.Base(), src.Base(), 1<<20); err != nil {
		t.Fatal(err)
	}
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	_ = e.ctx.Free(buf) // waits a full millisecond for the kernel
	if got := len(ofKind(e.col, ActivitySynchronization)); got != 0 {
		t.Fatalf("implicit syncs produced %d records, want 0", got)
	}
}

func TestConditionalSyncInvisible(t *testing.T) {
	e := newEnv()
	pageable := e.host.Alloc(1<<20, "dst")
	buf, _ := e.ctx.Malloc(1<<20, "dev")
	s := e.ctx.StreamCreate()
	if err := e.ctx.MemcpyAsyncD2H(pageable.Base(), buf.Base(), 1<<20, s); err != nil {
		t.Fatal(err)
	}
	if got := len(ofKind(e.col, ActivitySynchronization)); got != 0 {
		t.Fatalf("conditional sync produced %d records, want 0", got)
	}
	// The memcpy driver call itself is recorded.
	if e.col.DriverCallsByFunc()["cudaMemcpyAsync"] != 1 {
		t.Fatal("cudaMemcpyAsync driver record missing")
	}
}

func TestExplicitSyncVisible(t *testing.T) {
	e := newEnv()
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	e.ctx.DeviceSynchronize()
	syncs := ofKind(e.col, ActivitySynchronization)
	if len(syncs) != 1 {
		t.Fatalf("got %d sync records, want 1", len(syncs))
	}
	if syncs[0].Name != "cudaDeviceSynchronize" || syncs[0].Duration() <= 0 {
		t.Fatalf("sync record = %+v", syncs[0])
	}
}

func TestDeviceOpsRecorded(t *testing.T) {
	e := newEnv()
	src := e.host.Alloc(4096, "src")
	buf, _ := e.ctx.Malloc(4096, "dev")
	_ = e.ctx.MemcpyH2D(buf.Base(), src.Base(), 4096)
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Microsecond, Stream: gpu.LegacyStream})
	_ = e.ctx.MemsetDev(buf.Base(), 0, 4096)
	if len(ofKind(e.col, ActivityMemcpy)) != 1 {
		t.Fatal("memcpy activity missing")
	}
	if len(ofKind(e.col, ActivityKernel)) != 1 {
		t.Fatal("kernel activity missing")
	}
	if len(ofKind(e.col, ActivityMemset)) != 1 {
		t.Fatal("memset activity missing")
	}
}

func TestNeverCompletingKernelHasZeroSpan(t *testing.T) {
	e := newEnv()
	_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "spin", Duration: simtime.Duration(simtime.Infinity), Stream: gpu.LegacyStream})
	k := ofKind(e.col, ActivityKernel)
	if len(k) != 1 || k[0].Duration() != 0 {
		t.Fatalf("infinite kernel records = %+v", k)
	}
}

func TestBufferLimitDropsRecords(t *testing.T) {
	e := newEnv()
	e.col.Limit = 3
	for i := 0; i < 10; i++ {
		_, _ = e.ctx.Malloc(64, "x")
	}
	if len(e.col.Records()) != 3 {
		t.Fatalf("kept %d records, want 3", len(e.col.Records()))
	}
	if e.col.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", e.col.Dropped())
	}
}

func TestActivityKindStrings(t *testing.T) {
	kinds := map[ActivityKind]string{
		ActivityDriverCall:      "CUPTI_ACTIVITY_KIND_DRIVER",
		ActivityKernel:          "CUPTI_ACTIVITY_KIND_KERNEL",
		ActivityMemcpy:          "CUPTI_ACTIVITY_KIND_MEMCPY",
		ActivityMemset:          "CUPTI_ACTIVITY_KIND_MEMSET",
		ActivitySynchronization: "CUPTI_ACTIVITY_KIND_SYNCHRONIZATION",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if ActivityKind(99).String() != "CUPTI_ACTIVITY_KIND_UNKNOWN" {
		t.Error("unknown kind string wrong")
	}
}

// TestSyncTimeVastlyUnderreported quantifies the gap: an application doing
// all its synchronization through cudaFree shows zero CUPTI sync time even
// though most of its wall clock is sync wait.
func TestSyncTimeVastlyUnderreported(t *testing.T) {
	e := newEnv()
	var trueWait simtime.Duration
	e.ctx.AttachProbe(cuda.FuncInternalSync, cuda.Probe{Exit: func(c *cuda.Call) {
		trueWait += c.SyncWait()
	}})
	for i := 0; i < 5; i++ {
		buf, _ := e.ctx.Malloc(1024, "tmp")
		_, _ = e.ctx.LaunchKernel(cuda.KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
		_ = e.ctx.Free(buf)
	}
	var cuptiWait simtime.Duration
	for _, a := range ofKind(e.col, ActivitySynchronization) {
		cuptiWait += a.Duration()
	}
	if trueWait < 4*simtime.Millisecond {
		t.Fatalf("true wait only %v", trueWait)
	}
	if cuptiWait != 0 {
		t.Fatalf("CUPTI reported %v of sync, want 0", cuptiWait)
	}
}
