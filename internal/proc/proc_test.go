package proc

import (
	"errors"
	"testing"

	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

func TestNewProcessWiring(t *testing.T) {
	p := DefaultFactory().New()
	if p.Clock == nil || p.Dev == nil || p.Host == nil || p.Stack == nil || p.Ctx == nil {
		t.Fatal("process components missing")
	}
	if p.Clock.Now() != 0 {
		t.Fatal("clock not at process start")
	}
	if p.Ctx.Clock() != p.Clock || p.Ctx.Device() != p.Dev || p.Ctx.Host() != p.Host {
		t.Fatal("context not wired to process components")
	}
}

func TestCPUWorkAndExecTime(t *testing.T) {
	p := DefaultFactory().New()
	p.CPUWork(3 * simtime.Millisecond)
	if p.ExecTime() != 3*simtime.Millisecond {
		t.Fatalf("ExecTime = %v", p.ExecTime())
	}
}

func TestInManagesFrames(t *testing.T) {
	p := DefaultFactory().New()
	p.In("solve", "solver.cpp", 10, func() {
		if p.Stack.Depth() != 1 {
			t.Fatalf("depth = %d inside In", p.Stack.Depth())
		}
		p.At(42)
		if p.Stack.Current().Line != 42 {
			t.Fatal("At did not update line")
		}
		p.In("inner", "solver.cpp", 50, func() {
			if p.Stack.Depth() != 2 {
				t.Fatal("nested depth wrong")
			}
		})
	})
	if p.Stack.Depth() != 0 {
		t.Fatal("frames leaked")
	}
}

func TestReadWriteAttribution(t *testing.T) {
	p := DefaultFactory().NewMode(Content)
	r := p.Host.Alloc(64, "buf")
	p.In("consume", "app.cpp", 5, func() {
		if err := p.Write(r.Base(), []byte{1, 2, 3}, 7); err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(r.Base(), 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got[2] != 3 {
			t.Fatalf("Read = %v", got)
		}
		if p.Stack.Current().Line != 9 {
			t.Fatal("Read did not move the program counter")
		}
	})
}

func TestFreshProcessesAreIndependent(t *testing.T) {
	f := Factory{GPU: gpu.DefaultConfig(), CUDA: cuda.DefaultConfig()}
	a, b := f.New(), f.New()
	a.CPUWork(simtime.Second)
	if b.Clock.Now() != 0 {
		t.Fatal("processes share a clock")
	}
	if _, err := a.Ctx.Malloc(1024, "x"); err != nil {
		t.Fatal(err)
	}
	if b.Dev.MemStats().LiveBytes != 0 {
		t.Fatal("processes share a device")
	}
}

type hangApp struct{}

func (hangApp) Name() string { return "hang" }
func (hangApp) Run(p *Process) error {
	_, _ = p.Ctx.LaunchKernel(cuda.KernelSpec{
		Name: "spin", Duration: simtime.Duration(simtime.Infinity), Stream: gpu.LegacyStream,
	})
	p.Ctx.DeviceSynchronize()
	return nil
}

type panicApp struct{}

func (panicApp) Name() string       { return "panic" }
func (panicApp) Run(*Process) error { panic("application bug") }

func TestSafeRunConvertsHang(t *testing.T) {
	p := DefaultFactory().New()
	err := SafeRun(hangApp{}, p)
	if err == nil {
		t.Fatal("hang not reported")
	}
}

func TestSafeRunPropagatesOtherPanics(t *testing.T) {
	p := DefaultFactory().New()
	defer func() {
		if recover() == nil {
			t.Fatal("application panic swallowed")
		}
	}()
	_ = SafeRun(panicApp{}, p)
}

func TestFactoryPrepareHook(t *testing.T) {
	f := DefaultFactory()
	prepared := 0
	f.Prepare = func(p *Process) {
		prepared++
		if p.Ctx == nil {
			t.Error("Prepare ran before context wiring")
		}
	}
	_ = f.New()
	_ = f.New()
	if prepared != 2 {
		t.Fatalf("Prepare ran %d times, want 2", prepared)
	}
}

// TestTimingOnlyReadsFail: a process built without Content checks every
// access but has no bytes to return, so byte reads fail with the named
// errors instead of inventing contents; asking for Content restores them.
func TestTimingOnlyReadsFail(t *testing.T) {
	p := DefaultFactory().New()
	if p.Content() {
		t.Fatal("default process keeps content")
	}
	r := p.Host.Alloc(64, "buf")
	if err := p.Host.Poke(r.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Host.Peek(r.Base(), 3); !errors.Is(err, memory.ErrNoContent) {
		t.Fatalf("Peek on timing-only memory: err = %v, want ErrNoContent", err)
	}
	if _, err := p.Host.Peek(r.Base(), 65); !errors.Is(err, memory.ErrOutOfRange) {
		t.Fatalf("out-of-range Peek: err = %v, want ErrOutOfRange first", err)
	}
	b, err := p.Dev.Malloc(64, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Dev.DevRead(b.Base(), 8); !errors.Is(err, gpu.ErrNoContent) {
		t.Fatalf("DevRead on timing-only memory: err = %v, want ErrNoContent", err)
	}

	full := DefaultFactory().NewMode(Content)
	r = full.Host.Alloc(64, "buf")
	if err := full.Host.Poke(r.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got, err := full.Host.Peek(r.Base(), 3); err != nil || got[2] != 3 {
		t.Fatalf("Peek with Content = %v, %v", got, err)
	}
}
