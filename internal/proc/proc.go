// Package proc assembles one simulated process: virtual clock, GPU device,
// host address space, application call stack and CUDA context. FFM's
// multi-run model executes the target application in a *fresh* process per
// stage, so Process creation is cheap and fully deterministic.
package proc

import (
	"fmt"

	"diogenes/internal/callstack"
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// Process is one simulated execution environment.
type Process struct {
	Clock *simtime.Clock
	// Dev is device 0; Devs holds every device on the simulated node.
	Dev   *gpu.Device
	Devs  []*gpu.Device
	Host  *memory.Space
	Stack *callstack.Stack
	Ctx   *cuda.Context
}

// Mode selects what a process simulates beyond what every process does:
// virtual time, addresses, sizes, lazy allocation and every bounds,
// protection and use-after-free error. The zero Mode is a timing-only
// process. Whoever builds a process picks its Mode for the consumers of
// that one run; it is never a user setting.
type Mode uint8

// Process modes; they combine with |.
const (
	// Content keeps the bytes of host and device memory: transfers copy
	// them, kernels generate their writes, and Host.Peek can read them.
	// Runs that hash payloads or checksum results need it.
	Content Mode = 1 << iota
	// OpLog keeps every device's operation log (gpu.Device.Ops).
	OpLog
)

// New creates a fresh timing-only single-GPU process with the given device
// and driver configurations.
func New(gcfg gpu.Config, ccfg cuda.Config) *Process {
	return NewMulti(gcfg, ccfg, 1, 0)
}

// NewMulti creates a process with n identical devices, like the four-GPU
// nodes of the paper's testbed, simulating what mode selects.
func NewMulti(gcfg gpu.Config, ccfg cuda.Config, n int, mode Mode) *Process {
	clock := simtime.NewClock()
	keep := gpu.Keep{Content: mode&Content != 0, OpLog: mode&OpLog != 0}
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewKeeping(clock, gcfg, keep)
	}
	host := memory.NewTimingSpace()
	if keep.Content {
		host = memory.NewSpace()
	}
	stack := callstack.New()
	return &Process{
		Clock: clock,
		Dev:   devs[0],
		Devs:  devs,
		Host:  host,
		Stack: stack,
		Ctx:   cuda.NewMultiContext(clock, devs, host, stack, ccfg),
	}
}

// Content reports whether the process keeps memory contents. Applications
// compute result checksums only when it does: a timing-only process has no
// results to digest.
func (p *Process) Content() bool { return p.Host.Content() }

// App is a deterministic application that FFM can execute repeatedly.
// Run must perform identical sequences of driver calls and memory accesses
// given identical Process configurations; FFM's multi-run instrumentation
// depends on it (§5.3 discusses this limitation of the real tool).
type App interface {
	Name() string
	Run(p *Process) error
}

// SafeRun executes the application, converting a deadlock on the device (a
// cuda.HangError panic: the CPU blocked on work that never completes) into
// an ordinary error. Tools run applications they do not control; a broken
// application must be reported, not crash the tool.
func SafeRun(app App, p *Process) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if h, ok := v.(cuda.HangError); ok {
				err = fmt.Errorf("proc: application %s deadlocked: %w", app.Name(), h)
				return
			}
			panic(v)
		}
	}()
	return app.Run(p)
}

// CPUWork advances the clock by d, modelling application computation.
func (p *Process) CPUWork(d simtime.Duration) { p.Clock.Advance(d) }

// In runs body inside a stack frame for the named source function.
func (p *Process) In(function, file string, line int, body func()) {
	p.Stack.Push(function, file, line)
	defer p.Stack.Pop()
	body()
}

// At updates the current source line (the program counter moving within the
// innermost function).
func (p *Process) At(line int) { p.Stack.SetLine(line) }

// site builds the memory access site for the current stack position with an
// explicit line.
func (p *Process) site(line int) memory.Site {
	f := p.Stack.Current()
	return memory.Site{Function: f.Function, File: f.File, Line: line}
}

// Read performs an instrumented load of n bytes at addr, attributed to the
// given line of the current function. Applications use it for the CPU-side
// consumption of GPU results — the accesses stage 3's load/store analysis
// looks for. A timing-only process returns nil bytes.
func (p *Process) Read(addr memory.Addr, n int, line int) ([]byte, error) {
	p.At(line)
	return p.Host.Load(p.site(line), addr, n)
}

// Write performs an instrumented store at addr, attributed to the given
// line of the current function.
func (p *Process) Write(addr memory.Addr, data []byte, line int) error {
	p.At(line)
	return p.Host.Store(p.site(line), addr, data)
}

// ExecTime returns virtual time elapsed since process start.
func (p *Process) ExecTime() simtime.Duration {
	return simtime.Duration(p.Clock.Now())
}

// Factory builds fresh processes for a fixed configuration.
type Factory struct {
	GPU  gpu.Config
	CUDA cuda.Config
	// Devices is the GPU count per process; zero means one.
	Devices int
	// Prepare, if set, runs on every process the factory creates — the
	// hook tools use to install instrumentation or patches into *all*
	// processes of a launch (every rank of an MPI job), not just the one
	// they hold directly.
	Prepare func(*Process)
}

// New creates a timing-only process from the factory's configuration.
func (f Factory) New() *Process { return f.NewMode(0) }

// NewMode creates a process from the factory's configuration that
// simulates what mode selects.
func (f Factory) NewMode(mode Mode) *Process {
	n := f.Devices
	if n < 1 {
		n = 1
	}
	p := NewMulti(f.GPU, f.CUDA, n, mode)
	if f.Prepare != nil {
		f.Prepare(p)
	}
	return p
}

// DefaultFactory returns a factory with default device and driver
// configurations.
func DefaultFactory() Factory {
	return Factory{GPU: gpu.DefaultConfig(), CUDA: cuda.DefaultConfig()}
}
