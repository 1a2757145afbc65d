package apps

import (
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/hashstore"
	"diogenes/internal/memory"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// AMG models LLNL's algebraic multigrid benchmark (§5.1) running the ij
// matrix problem. The headline finding: AMG zeroes its unified-memory
// accumulation buffers with cudaMemset every cycle, and cudaMemset
// *conditionally synchronizes* when applied to a managed address — a wait
// CUPTI never reports. Since the pages were CPU-resident anyway, the fix is
// replacing the call with a plain C memset.
//
// Secondary problems match Table 2: per-cycle cudaFree of coarse-level
// temporaries with smoother kernels still in flight, and partially
// unnecessary cudaStreamSynchronize calls.
//
// The Fixed variant replaces the managed cudaMemset with a host-side fill.
type AMG struct {
	Cycles  int
	Variant Variant

	SmootherDur  simtime.Duration
	ResidualDur  simtime.Duration
	BoundaryDur  simtime.Duration
	CPUAssembly  simtime.Duration
	ManagedBytes int

	finalState checksum
}

// NewAMG builds the model at the given scale (scale 1.0 ≈ 120 V-cycles of
// the ij benchmark).
func NewAMG(scale float64, v Variant) *AMG {
	return &AMG{
		Cycles:       scaled(120, scale),
		Variant:      v,
		SmootherDur:  1100 * simtime.Microsecond,
		ResidualDur:  600 * simtime.Microsecond,
		BoundaryDur:  2300 * simtime.Microsecond,
		CPUAssembly:  6000 * simtime.Microsecond,
		ManagedBytes: 256 << 10,
	}
}

// Name implements proc.App.
func (a *AMG) Name() string {
	if a.Variant == Fixed {
		return "amg(fixed)"
	}
	return "amg"
}

func amgFactory() proc.Factory {
	g := gpu.DefaultConfig()
	g.MemsetBytesPerUS = 1500 // 256 KiB managed fill ≈ 0.17 ms device-side
	g.D2HBytesPerUS = 50
	c := cuda.DefaultConfig()
	c.FreeCost = 500 * simtime.Microsecond
	c.MallocCost = 400 * simtime.Microsecond
	c.ManagedAllocCost = 700 * simtime.Microsecond
	return proc.Factory{GPU: g, CUDA: c}
}

// amgState is one rank's device-side state.
type amgState struct {
	accum        *memory.Region
	smoothStream gpu.StreamID
	residStream  gpu.StreamID
	residHost    *memory.Region
	devResid     *gpu.DevBuf
}

// Setup allocates one rank's buffers and streams (mpi.RankProgram).
func (a *AMG) Setup(p *proc.Process, rank int) (mpi.RankState, error) {
	st := &amgState{}
	var err error
	// Unified-memory accumulation buffers (hypre's managed pools).
	if st.accum, err = p.Ctx.MallocManaged(a.ManagedBytes, "managed accumulator"); err != nil {
		return nil, err
	}
	if _, err = p.Ctx.MallocManaged(a.ManagedBytes, "managed workspace"); err != nil {
		return nil, err
	}
	st.smoothStream = p.Ctx.StreamCreate()
	st.residStream = p.Ctx.StreamCreate()
	st.residHost = p.Ctx.MallocHost(8<<10, "residual (pinned)")
	if st.devResid, err = p.Ctx.Malloc(8<<10, "dev residual"); err != nil {
		return nil, err
	}
	if _, err = p.Ctx.Malloc(1<<20, "coarse grids"); err != nil {
		return nil, err
	}
	return st, nil
}

// Steps implements mpi.RankProgram: one superstep per V-cycle.
func (a *AMG) Steps() int { return a.Cycles }

// Step executes one V-cycle on one rank (mpi.RankProgram). Every rank does
// identical work — the ij benchmark is weakly scaled — so the per-cycle
// allreduce adds only its latency.
func (a *AMG) Step(p *proc.Process, rank int, state mpi.RankState, cycle int) error {
	st := state.(*amgState)
	accum, smoothStream, residStream := st.accum, st.smoothStream, st.residStream
	residHost, devResid := st.residHost, st.devResid
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}
	{
		p.In("hypre_BoomerAMGCycle", "par_cycle.c", 310, func() {
			// Zero the accumulators. On a unified address this performs an
			// unreported conditional synchronization, waiting out the
			// previous cycle's smoother kernels on smoothStream.
			p.At(331)
			if a.Variant == Fixed {
				// The paper's fix: plain memset on the CPU-resident pages.
				if fail(p.Host.Fill(accum.Base(), 0, a.ManagedBytes)) {
					return
				}
				p.CPUWork(120 * simtime.Microsecond)
			} else {
				if fail(p.Ctx.MemsetManaged(accum.Base(), 0, a.ManagedBytes)) {
					return
				}
			}
			// Short setup stretch: the next synchronization (the first
			// cudaFree) follows soon, which is what bounds Diogenes'
			// estimate for the memset well below its call time.
			p.CPUWork(1000 * simtime.Microsecond)

			// Coarse-level temporary released early in the cycle, while
			// the previous cycle's inter-grid kernel may still be running.
			buf0, e0 := p.Ctx.Malloc(64<<10, "coarse temp A")
			if fail(e0) {
				return
			}
			p.At(366)
			if fail(p.Ctx.Free(buf0)) {
				return
			}
			p.CPUWork(450 * simtime.Microsecond)

			// Per-level relaxation sweeps on the smoother stream; they run
			// long past this cycle's CPU work.
			for lvl := 0; lvl < 3; lvl++ {
				p.At(350 + lvl)
				if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "relax_sweep", Duration: a.SmootherDur, Stream: smoothStream,
				}); fail(e) {
					return
				}
				p.CPUWork(a.CPUAssembly / 6)
			}

			// Second temporary freed while the smoothers run: an implicit
			// synchronization with real work after it.
			buf1, e1 := p.Ctx.Malloc(64<<10, "coarse temp B")
			if fail(e1) {
				return
			}
			p.CPUWork(a.CPUAssembly / 8)
			p.At(403)
			if fail(p.Ctx.Free(buf1)) {
				return
			}
			p.CPUWork(450 * simtime.Microsecond)

			// Residual norm on its own stream: pinned async copy, stream
			// sync, immediate read — a necessary, well-placed wait.
			p.At(430)
			if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "residual_norm", Duration: a.ResidualDur, Stream: residStream,
				Writes: []cuda.KernelWrite{{Ptr: devResid.Base(), Size: 256, Seed: uint64(cycle)}},
			}); fail(e) {
				return
			}
			if fail(p.Ctx.MemcpyAsyncD2H(residHost.Base(), devResid.Base(), 8<<10, residStream)) {
				return
			}
			p.At(434)
			p.Ctx.StreamSynchronize(residStream)
			if _, e := p.Read(residHost.Base(), 32, 435); fail(e) {
				return
			}
			p.CPUWork(a.CPUAssembly / 2)

			// Inter-grid transfer kernel launched at the very end of the
			// cycle: it is still running when the next cycle's managed
			// cudaMemset arrives, which is what that memset silently waits
			// for.
			p.At(460)
			if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "interp_restrict", Duration: a.BoundaryDur, Stream: smoothStream,
			}); fail(e) {
				return
			}
			p.CPUWork(a.CPUAssembly / 8)
		})
	}
	return err
}

// Run implements proc.App for a single-process (1-rank) execution; the
// registry wraps the program in a 2-rank MPI world (see init).
func (a *AMG) Run(p *proc.Process) error {
	st, err := a.Setup(p, 0)
	if err != nil {
		return err
	}
	for cycle := 0; cycle < a.Cycles; cycle++ {
		if err := a.Step(p, 0, st, cycle); err != nil {
			return err
		}
	}
	if !p.Content() {
		return nil
	}
	data, err := p.Host.Peek(st.(*amgState).residHost.Base(), 8<<10)
	if err != nil {
		return err
	}
	a.finalState.set(hashstore.Hash(data).Hex())
	return nil
}

// FinalState implements Checksummer. It reflects the most recent
// single-process Run; the MPI wrapper records rank 0's digest through Step
// only, so registry users should compare via the direct Run path.
func (a *AMG) FinalState() string { return a.finalState.get() }

// amgRanks is the simulated MPI world size: AMG is "an MPI based parallel
// algebraic multigrid solver"; the tool instruments rank 0's process while
// the other rank runs alongside, its per-cycle allreduce showing up as
// small gaps on the observed rank.
const amgRanks = 2

// amgBarrierLatency is the modelled per-cycle allreduce cost.
const amgBarrierLatency = 25 * simtime.Microsecond

func amgMPIApp(scale float64, v Variant, f proc.Factory) proc.App {
	return mpi.App(NewAMG(scale, v), mpi.Config{
		Ranks:          amgRanks,
		BarrierLatency: amgBarrierLatency,
		Factory:        f,
	}, 0)
}

func init() {
	register(Spec{
		Name:        "amg",
		Description: "algebraic multigrid solver (LLNL, MPI), ij matrix benchmark",
		New: func(scale float64, v Variant) proc.App {
			return amgMPIApp(scale, v, amgFactory())
		},
		NewWith: amgMPIApp,
		Factory: amgFactory,
		MPI: &MPISpec{
			DefaultRanks:   amgRanks,
			BarrierLatency: amgBarrierLatency,
			Program: func(scale float64, v Variant) mpi.RankProgram {
				return NewAMG(scale, v)
			},
		},
	})
}
