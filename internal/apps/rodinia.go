package apps

import (
	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/hashstore"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// RodiniaGaussian models the Gaussian-elimination GPU benchmark from the
// Rodinia suite (§5.1). The forward-elimination loop launches the Fan1 and
// Fan2 kernels for every row and calls the deprecated
// cudaThreadSynchronize after each — a synchronization whose protected data
// is only consumed after the loop. NVProf attributes ~95% of execution to
// cudaThreadSynchronize; Diogenes estimates only ~2% is recoverable,
// because almost no CPU work separates consecutive synchronizations: each
// removed wait simply reappears at the next one (the Figure 4 small-benefit
// case). The paper's fix — commenting the call out — recovered 2.1%.
//
// A small per-row re-upload of the unchanged multiplier block supplies the
// duplicate-transfer savings of Table 2's cudaMemcpy row.
type RodiniaGaussian struct {
	Rows    int
	Variant Variant

	Fan1Dur  simtime.Duration
	Fan2Dur  simtime.Duration
	RowWork  simtime.Duration
	MulBytes int

	finalState checksum
}

// NewRodiniaGaussian builds the model at the given scale (scale 1.0 ≈ a
// 400-row matrix).
func NewRodiniaGaussian(scale float64, v Variant) *RodiniaGaussian {
	return &RodiniaGaussian{
		Rows:     scaled(400, scale),
		Variant:  v,
		Fan1Dur:  2 * simtime.Millisecond,
		Fan2Dur:  12 * simtime.Millisecond,
		RowWork:  150 * simtime.Microsecond,
		MulBytes: 8 << 10,
	}
}

// Name implements proc.App.
func (a *RodiniaGaussian) Name() string {
	if a.Variant == Fixed {
		return "rodinia_gaussian(fixed)"
	}
	return "rodinia_gaussian"
}

func rodiniaFactory() proc.Factory {
	g := gpu.DefaultConfig()
	g.H2DBytesPerUS = 60 // 8 KiB block ≈ 0.13 ms
	g.CopyLatency = 15 * simtime.Microsecond
	return proc.Factory{GPU: g, CUDA: cuda.DefaultConfig()}
}

// Run implements proc.App.
func (a *RodiniaGaussian) Run(p *proc.Process) error {
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}

	matBytes := 256 << 10
	hostA := p.Host.Alloc(matBytes, "matrix a")
	hostB := p.Host.Alloc(matBytes/16, "vector b")
	hostM := p.Host.Alloc(a.MulBytes, "multiplier block m")
	fill := make([]byte, matBytes)
	simtime.NewRNG(42).Bytes(fill)
	if err := p.Host.Poke(hostA.Base(), fill[:matBytes]); err != nil {
		return err
	}
	if err := p.Host.Poke(hostM.Base(), fill[:a.MulBytes]); err != nil {
		return err
	}

	var devA, devB, devM *gpu.DevBuf
	p.In("main", "gaussian.cu", 250, func() {
		if devA, err = p.Ctx.Malloc(matBytes, "m_cuda a"); err != nil {
			return
		}
		if devB, err = p.Ctx.Malloc(matBytes/16, "m_cuda b"); err != nil {
			return
		}
		if devM, err = p.Ctx.Malloc(a.MulBytes, "m_cuda m"); err != nil {
			return
		}
		p.At(260)
		if fail(p.Ctx.MemcpyH2D(devA.Base(), hostA.Base(), matBytes)) {
			return
		}
		p.At(261)
		if fail(p.Ctx.MemcpyH2D(devB.Base(), hostB.Base(), matBytes/16)) {
			return
		}
	})
	if err != nil {
		return err
	}

	p.In("ForwardSub", "gaussian.cu", 300, func() {
		for t := 0; t < a.Rows && err == nil; t++ {
			// The multiplier block is re-uploaded unchanged every row:
			// a duplicate transfer after the first.
			p.At(308)
			if fail(p.Ctx.MemcpyH2D(devM.Base(), hostM.Base(), a.MulBytes)) {
				return
			}
			p.At(310)
			if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "Fan1", Duration: a.Fan1Dur, Stream: gpu.LegacyStream,
			}); fail(e) {
				return
			}
			if a.Variant != Fixed {
				p.At(311)
				p.Ctx.ThreadSynchronize()
			}
			p.CPUWork(a.RowWork)
			p.At(313)
			if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "Fan2", Duration: a.Fan2Dur, Stream: gpu.LegacyStream,
				Writes: []cuda.KernelWrite{{Ptr: devA.Base(), Size: 256, Seed: uint64(t)}},
			}); fail(e) {
				return
			}
			if a.Variant != Fixed {
				p.At(315)
				p.Ctx.ThreadSynchronize()
			}
			p.CPUWork(a.RowWork)
		}
	})
	if err != nil {
		return err
	}

	p.In("BackSub", "gaussian.cu", 350, func() {
		// Final readback: necessary synchronization, result used at once.
		p.At(355)
		if fail(p.Ctx.MemcpyD2H(hostA.Base(), devA.Base(), 4096)) {
			return
		}
		if _, e := p.Read(hostA.Base(), 128, 356); fail(e) {
			return
		}
		p.CPUWork(2 * simtime.Millisecond)
		p.At(365)
		if fail(p.Ctx.Free(devA)) {
			return
		}
		if fail(p.Ctx.Free(devB)) {
			return
		}
		if fail(p.Ctx.Free(devM)) {
			return
		}
	})
	if err == nil && p.Content() {
		data, e := p.Host.Peek(hostA.Base(), 4096)
		if e != nil {
			return e
		}
		a.finalState.set(hashstore.Hash(data).Hex())
	}
	return err
}

// FinalState implements Checksummer.
func (a *RodiniaGaussian) FinalState() string { return a.finalState.get() }

func init() {
	register(Spec{
		Name:        "rodinia_gaussian",
		Description: "Rodinia Gaussian elimination GPU benchmark (UVA)",
		New:         func(scale float64, v Variant) proc.App { return NewRodiniaGaussian(scale, v) },
		Factory:     rodiniaFactory,
	})
}
