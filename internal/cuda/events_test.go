package cuda

import (
	"testing"

	"diogenes/internal/gpu"
	"diogenes/internal/simtime"
)

func TestEventRecordSynchronize(t *testing.T) {
	e := newEnv()
	rec := &syncRecorder{}
	rec.attach(e.ctx)
	ev := e.ctx.EventCreate()
	if ev.Recorded() {
		t.Fatal("fresh event claims recorded")
	}
	op, _ := e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: 5 * simtime.Millisecond, Stream: gpu.LegacyStream})
	if err := e.ctx.EventRecord(ev, gpu.LegacyStream); err != nil {
		t.Fatal(err)
	}
	if err := e.ctx.EventSynchronize(ev); err != nil {
		t.Fatal(err)
	}
	if e.clock.Now() < op.End {
		t.Fatal("EventSynchronize returned before kernel completion")
	}
	if len(rec.scopes) != 1 || rec.scopes[0] != SyncExplicit {
		t.Fatalf("event sync scopes = %v", rec.scopes)
	}
}

func TestEventRecordSnapshotsQueuePosition(t *testing.T) {
	e := newEnv()
	op1, _ := e.ctx.LaunchKernel(KernelSpec{Name: "k1", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	ev := e.ctx.EventCreate()
	if err := e.ctx.EventRecord(ev, gpu.LegacyStream); err != nil {
		t.Fatal(err)
	}
	// Work enqueued after the record does not delay the event.
	op2, _ := e.ctx.LaunchKernel(KernelSpec{Name: "k2", Duration: 50 * simtime.Millisecond, Stream: gpu.LegacyStream})
	if err := e.ctx.EventSynchronize(ev); err != nil {
		t.Fatal(err)
	}
	if e.clock.Now() < op1.End {
		t.Fatal("event completed before its preceding work")
	}
	if e.clock.Now() >= op2.End {
		t.Fatal("event waited for work enqueued after the record")
	}
}

func TestEventQuery(t *testing.T) {
	e := newEnv()
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: 10 * simtime.Millisecond, Stream: gpu.LegacyStream})
	ev := e.ctx.EventCreate()
	if err := e.ctx.EventRecord(ev, gpu.LegacyStream); err != nil {
		t.Fatal(err)
	}
	done, err := e.ctx.EventQuery(ev)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("query reported completion while kernel runs")
	}
	e.clock.Advance(20 * simtime.Millisecond)
	done, err = e.ctx.EventQuery(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("query missed completion")
	}
}

func TestEventElapsedTime(t *testing.T) {
	e := newEnv()
	start := e.ctx.EventCreate()
	_ = e.ctx.EventRecord(start, gpu.LegacyStream)
	op, _ := e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: 7 * simtime.Millisecond, Stream: gpu.LegacyStream})
	end := e.ctx.EventCreate()
	_ = e.ctx.EventRecord(end, gpu.LegacyStream)

	if _, err := e.ctx.EventElapsedTime(start, end); err == nil {
		t.Fatal("elapsed before completion should error (cudaErrorNotReady)")
	}
	e.ctx.DeviceSynchronize()
	d, err := e.ctx.EventElapsedTime(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d < op.Duration() {
		t.Fatalf("elapsed = %v, want >= kernel duration %v", d, op.Duration())
	}
}

func TestEventErrors(t *testing.T) {
	e := newEnv()
	ev := e.ctx.EventCreate()
	if err := e.ctx.EventSynchronize(ev); err == nil {
		t.Fatal("sync on unrecorded event accepted")
	}
	if _, err := e.ctx.EventQuery(ev); err == nil {
		t.Fatal("query on unrecorded event accepted")
	}
	if _, err := e.ctx.EventElapsedTime(ev, ev); err == nil {
		t.Fatal("elapsed on unrecorded events accepted")
	}
	if err := e.ctx.EventRecord(ev, gpu.StreamID(99)); err == nil {
		t.Fatal("record on unknown stream accepted")
	}
}

func TestEventSyncVisibleToCUPTIAndDiogenes(t *testing.T) {
	e := newEnv()
	var syncs []SyncScope
	e.ctx.AttachProbe(FuncInternalSync, Probe{Exit: func(c *Call) { syncs = append(syncs, c.Scope) }})
	var l callLog
	l.attach(e.ctx)
	l.start(e.clock.Now())
	_, _ = e.ctx.LaunchKernel(KernelSpec{Name: "k", Duration: simtime.Millisecond, Stream: gpu.LegacyStream})
	ev := e.ctx.EventCreate()
	_ = e.ctx.EventRecord(ev, gpu.LegacyStream)
	_ = e.ctx.EventSynchronize(ev)
	if len(syncs) != 1 || syncs[0] != SyncExplicit {
		t.Fatalf("funnel observations = %v", syncs)
	}
	if l.driverCalls()[FuncEventSynchronize] != 1 {
		t.Fatal("event sync not counted")
	}
}
