package apps

import (
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/hashstore"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// CuIBM models cuIBM [Layton et al., ParCFD'11]: a 2D Navier-Stokes solver
// using the immersed boundary method, run on the lid-driven cavity Re=5000
// case (§5.1). Its signature problem — also found manually in the authors'
// earlier CCGRID'18 study — is that Thrust/Cusp template functions allocate
// and free temporary device storage on *every* call, millions of times over
// a run, and each cudaFree synchronizes with the GPU:
//
//   - thrust::detail::contiguous_storage<T,Alloc> allocates per solve
//     (three calls per timestep across float/double instantiations);
//   - a thrust::pair-returning reduction temporary (twice per timestep);
//   - cusp::...::multiply's SpMV workspace (once per timestep);
//   - per-substep cudaDeviceSynchronize calls with real CPU work after
//     them;
//   - a pageable-destination cudaMemcpyAsync for the residual that
//     conditionally synchronizes, read only every fourth step;
//   - cudaFuncGetAttributes on every kernel launch (visible to HPCToolkit,
//     irrelevant to Diogenes).
//
// At full scale the call count crashes NVProf-sim (§5.2), as it did the
// real NVProf beyond ~75M calls.
//
// The Fixed variant installs the paper's remedy: a simple memory manager
// that reuses temporary regions, eliminating the synchronizing frees *and*
// the paired allocations — which is why the measured benefit (17.6%)
// exceeds the estimate Diogenes gave for the contiguous_storage fold
// (10.8%).
type CuIBM struct {
	Steps   int
	Variant Variant

	KernelDur     simtime.Duration
	ProjectionDur simtime.Duration
	VelocityDur   simtime.Duration
	ChurnBytes    int
	ResidualWork  simtime.Duration
	ComputeWork   simtime.Duration

	finalState checksum
}

// NewCuIBM builds the model at the given scale (scale 1.0 ≈ 4000 timesteps
// standing in for the full lid-driven cavity run).
func NewCuIBM(scale float64, v Variant) *CuIBM {
	return &CuIBM{
		Steps:         scaled(4000, scale),
		Variant:       v,
		KernelDur:     500 * simtime.Microsecond,
		ProjectionDur: 3 * simtime.Millisecond,
		VelocityDur:   1200 * simtime.Microsecond,
		ChurnBytes:    64 << 10,
		ResidualWork:  1800 * simtime.Microsecond,
		ComputeWork:   800 * simtime.Microsecond,
	}
}

// Name implements proc.App.
func (a *CuIBM) Name() string {
	if a.Variant == Fixed {
		return "cuibm(fixed)"
	}
	return "cuibm"
}

func cuibmFactory() proc.Factory {
	g := gpu.DefaultConfig()
	g.D2HBytesPerUS = 70 // 96 KiB residual block ≈ 1.4 ms
	g.H2DBytesPerUS = 40
	g.CopyLatency = 100 * simtime.Microsecond
	c := cuda.DefaultConfig()
	c.MallocCost = 250 * simtime.Microsecond
	c.FreeCost = 200 * simtime.Microsecond
	c.LaunchCost = 400 * simtime.Microsecond
	c.AttrCost = 200 * simtime.Microsecond
	return proc.Factory{GPU: g, CUDA: c}
}

// templateChurn describes one Thrust/Cusp call site that allocates and
// frees device storage per invocation.
type templateChurn struct {
	function string
	file     string
	line     int
	calls    int // invocations per timestep
}

var cuibmChurns = []templateChurn{
	{
		function: "thrust::detail::contiguous_storage<float, thrust::device_malloc_allocator<float>>::allocate",
		file:     "contiguous_storage.inl", line: 235, calls: 2,
	},
	{
		function: "thrust::detail::contiguous_storage<double, thrust::device_malloc_allocator<double>>::allocate",
		file:     "contiguous_storage.inl", line: 235, calls: 1,
	},
	{
		function: "thrust::pair<thrust::pointer<void, thrust::cuda_cub::tag>, unsigned long>",
		file:     "temporary_buffer.h", line: 76, calls: 2,
	},
	{
		function: "cusp::system::detail::generic::multiply<cusp::csr_matrix<int, double, cusp::device_memory>>",
		file:     "multiply.inl", line: 117, calls: 1,
	},
}

// Run implements proc.App.
func (a *CuIBM) Run(p *proc.Process) error {
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}

	residual := p.Host.Alloc(96<<10, "residual (pageable)")
	devResidual, err := p.Ctx.Malloc(96<<10, "dev residual")
	if err != nil {
		return err
	}
	devState, err := p.Ctx.Malloc(1<<20, "flow field")
	if err != nil {
		return err
	}

	// The fixed build's memory manager: one reusable region per call site.
	reuse := make(map[string]*gpu.DevBuf)
	if a.Variant == Fixed {
		for _, ch := range cuibmChurns {
			buf, e := p.Ctx.Malloc(a.ChurnBytes, "memory manager pool: "+ch.function)
			if fail(e) {
				return err
			}
			reuse[ch.function] = buf
		}
	}

	launch := func(name string, dur simtime.Duration, seed uint64) {
		p.Ctx.FuncGetAttributes(name)
		if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
			Name: name, Duration: dur, Stream: gpu.LegacyStream,
			Writes: []cuda.KernelWrite{{Ptr: devState.Base(), Size: 512, Seed: seed}},
		}); fail(e) {
			return
		}
	}

	// churn models one Thrust temporary-storage call: allocate, launch the
	// algorithm's kernel, free (which synchronizes with the queue).
	churn := func(ch templateChurn, seed uint64) {
		p.In(ch.function, ch.file, ch.line, func() {
			launch("thrust_kernel", a.KernelDur, seed)
			if err != nil {
				return
			}
			if a.Variant == Fixed {
				// Memory manager: reuse the pooled region; the bookkeeping
				// and the algorithm's own CPU work remain.
				p.CPUWork(50 * simtime.Microsecond)
				p.CPUWork(200 * simtime.Microsecond)
				return
			}
			buf, e := p.Ctx.Malloc(a.ChurnBytes, "thrust temporary")
			if fail(e) {
				return
			}
			p.CPUWork(200 * simtime.Microsecond)
			p.At(ch.line + 8)
			if fail(p.Ctx.Free(buf)) {
				return
			}
		})
	}

	for step := 0; step < a.Steps && err == nil; step++ {
		step := step
		p.In("NavierStokesSolver::stepTime", "NavierStokesSolver.cu", 140, func() {
			// The pressure-projection solve runs long on the device while
			// the CPU assembles the next system; it is what the template
			// functions' cudaFree calls end up waiting for — and it still
			// runs in the fixed build, so those waits shift rather than
			// disappear.
			p.At(150)
			launch("pressure_projection", a.ProjectionDur, uint64(step))
			if err != nil {
				return
			}

			// Advection/diffusion assembly with Thrust temporaries.
			for _, ch := range cuibmChurns {
				for c := 0; c < ch.calls; c++ {
					churn(ch, uint64(step*31+ch.line+c))
					if err != nil {
						return
					}
					p.CPUWork(a.ComputeWork / 4)
				}
			}

			// Sub-step synchronizations with real assembly work between
			// them: worth moving, partially recoverable.
			for s := 0; s < 3; s++ {
				p.At(180 + s)
				launch("velocity_update", a.VelocityDur, uint64(step*3+s))
				if err != nil {
					return
				}
				p.CPUWork(a.ComputeWork / 2)
				p.At(190 + s)
				p.Ctx.DeviceSynchronize()
				p.CPUWork(a.ComputeWork)
			}

			// Residual check: pageable-destination async copy that
			// conditionally synchronizes; consumed every fourth step only.
			p.At(220)
			if fail(p.Ctx.MemcpyAsyncD2H(residual.Base(), devResidual.Base(), 96<<10, gpu.LegacyStream)) {
				return
			}
			p.CPUWork(a.ResidualWork)
			if step%4 == 3 {
				if _, e := p.Read(residual.Base(), 64, 223); fail(e) {
					return
				}
			}

			// Necessary end-of-step synchronization: the solver reads the
			// updated flow field immediately after.
			p.At(240)
			if fail(p.Ctx.MemcpyD2H(residual.Base(), devState.Base(), 40<<10)) {
				return
			}
			if _, e := p.Read(residual.Base(), 64, 241); fail(e) {
				return
			}
		})
	}
	if err == nil && p.Content() {
		data, e := p.Host.Peek(residual.Base(), 40<<10)
		if e != nil {
			return e
		}
		a.finalState.set(hashstore.Hash(data).Hex())
	}
	return err
}

// FinalState implements Checksummer.
func (a *CuIBM) FinalState() string { return a.finalState.get() }

func init() {
	register(Spec{
		Name:        "cuibm",
		Description: "2D Navier-Stokes immersed-boundary solver (Boston U.), lid-driven cavity Re=5000",
		New:         func(scale float64, v Variant) proc.App { return NewCuIBM(scale, v) },
		Factory:     cuibmFactory,
	})
}
