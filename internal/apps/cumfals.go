package apps

import (
	"fmt"

	"diogenes/internal/cuda"
	"diogenes/internal/gpu"
	"diogenes/internal/hashstore"
	"diogenes/internal/memory"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// CumfALS models cumf_als [Tan et al., ICPP'18]: an alternating-least-
// squares matrix factorization library run on the MovieLens 10M ratings for
// thousands of iterations (§5.1). Its problem inventory matches Figure 6:
//
//   - rating tiles are re-uploaded with identical content every iteration
//     (five duplicate cudaMemcpy points: lines 738/739/801/902/930);
//   - seventeen temporary device buffers are allocated and freed *inside*
//     the solver loop; every cudaFree synchronizes implicitly (lines
//     760–987), and the early ones wait on in-flight solver kernels;
//   - a cudaDeviceSynchronize at line 877 waits out the big solve kernels
//     even though the following operations synchronize anyway — removing it
//     alone changes nothing, which is why Diogenes scores it ≈0 while
//     NVProf ranks it first (Table 2).
//
// The Fixed variant applies the paper's subsequence-10..23 fix: the
// alloc/free pairs at lines 856–987 are hoisted out of the loop (allocated
// once, reused) and the duplicate uploads at 902/930 are transferred once.
// The line-877 synchronization stays — the paper verified its removal alone
// had no effect on execution time, exactly as Diogenes' ≈0 estimate says.
type CumfALS struct {
	Iters   int
	Variant Variant

	// Tunables, calibrated against the Table 1/2 shapes.
	TileBytes    int
	ResultBytes  int
	TempBytes    int
	Phase1Kernel simtime.Duration
	Phase2Kernel simtime.Duration
	GapWork      simtime.Duration
	ModelWork    simtime.Duration

	finalState checksum
}

// NewCumfALS builds the model at the given scale (scale 1.0 ≈ 600
// iterations standing in for the paper's 5000).
func NewCumfALS(scale float64, v Variant) *CumfALS {
	return &CumfALS{
		Iters:        scaled(600, scale),
		Variant:      v,
		TileBytes:    24 << 10,
		ResultBytes:  64 << 10,
		TempBytes:    32 << 10,
		Phase1Kernel: 2200 * simtime.Microsecond,
		Phase2Kernel: 7 * simtime.Millisecond,
		GapWork:      700 * simtime.Microsecond,
		ModelWork:    3 * simtime.Millisecond,
	}
}

// Name implements proc.App.
func (a *CumfALS) Name() string {
	if a.Variant == Fixed {
		return "cumf_als(fixed)"
	}
	return "cumf_als"
}

// cumfFactory returns the machine model cumf_als is measured on: a slow
// interconnect (the scaled-down tiles stand in for multi-megabyte ones) and
// driver costs as observed for this workload on the POWER8 testbed.
func cumfFactory() proc.Factory {
	g := gpu.DefaultConfig()
	g.H2DBytesPerUS = 32 // 24 KiB tile ≈ 0.8 ms
	g.D2HBytesPerUS = 40
	g.CopyLatency = 60 * simtime.Microsecond
	c := cuda.DefaultConfig()
	c.MallocCost = 380 * simtime.Microsecond
	c.FreeCost = 160 * simtime.Microsecond
	return proc.Factory{GPU: g, CUDA: c}
}

// alsEarlyFrees are the per-iteration alloc/free lines preceding the
// line-877 synchronization; alsLateFrees follow it (and belong to the
// hoisted subsequence together with line 856).
var (
	alsEarlyFrees = []int{760, 768, 775, 790, 812, 855, 856}
	alsLateFrees  = []int{878, 890, 915, 926, 941, 950, 965, 972, 986, 987}
)

func alsHoisted(line int) bool { return line >= 856 }

// Run implements proc.App.
func (a *CumfALS) Run(p *proc.Process) error {
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}

	// Host-side tiles; contents fixed across iterations (the ratings do
	// not change), which is what makes the re-uploads duplicates.
	tiles := make([]*memory.Region, 5)
	devTiles := make([]*gpu.DevBuf, 5)
	payload := make([]byte, a.TileBytes)
	for i := range tiles {
		tiles[i] = p.Host.Alloc(a.TileBytes, fmt.Sprintf("ratings tile %d", i))
		simtime.NewRNG(uint64(1000 + i)).Bytes(payload)
		if fail(p.Host.Poke(tiles[i].Base(), payload)) {
			return err
		}
		if devTiles[i], err = p.Ctx.Malloc(a.TileBytes, "dev tile"); err != nil {
			return err
		}
	}
	result := p.Host.Alloc(a.ResultBytes, "factor matrix X")
	devResult, err := p.Ctx.Malloc(a.ResultBytes, "dev X")
	if err != nil {
		return err
	}

	// The fixed build pre-allocates the reusable temporaries and uploads
	// the previously re-transferred tiles once.
	if a.Variant == Fixed {
		for _, line := range append(append([]int{}, alsEarlyFrees...), alsLateFrees...) {
			if alsHoisted(line) {
				if _, e := p.Ctx.Malloc(a.TempBytes, fmt.Sprintf("hoisted temp @%d", line)); fail(e) {
					return err
				}
			}
		}
		if fail(p.Ctx.MemcpyH2D(devTiles[3].Base(), tiles[3].Base(), a.TileBytes)) {
			return err
		}
		if fail(p.Ctx.MemcpyH2D(devTiles[4].Base(), tiles[4].Base(), a.TileBytes)) {
			return err
		}
	}

	// Per-iteration temporaries: the original build allocates all of them
	// at the top of the loop body (the cudaMalloc block NVProf ranks
	// highly) and frees them at the listed lines; the fixed build
	// allocates only the non-hoisted ones. The inter-entry application
	// work (GapWork) is real computation and remains in both builds.
	temps := make(map[int]*gpu.DevBuf, 17)
	allocTemps := func() {
		for _, line := range append(append([]int{}, alsEarlyFrees...), alsLateFrees...) {
			if a.Variant == Fixed && alsHoisted(line) {
				continue
			}
			buf, e := p.Ctx.Malloc(a.TempBytes, "loop temp")
			if fail(e) {
				return
			}
			temps[line] = buf
		}
	}
	// free releases one temporary; every call synchronizes implicitly with
	// whatever the device is still running. The trailing GapWork is the
	// application's own computation between entries and remains in the
	// fixed build.
	free := func(line int) {
		if !(a.Variant == Fixed && alsHoisted(line)) {
			p.At(line)
			if fail(p.Ctx.Free(temps[line])) {
				return
			}
		}
		p.CPUWork(a.GapWork)
	}
	upload := func(idx, line int, oncePreloaded bool) {
		if a.Variant == Fixed && oncePreloaded {
			return
		}
		p.At(line)
		if fail(p.Ctx.MemcpyH2D(devTiles[idx].Base(), tiles[idx].Base(), a.TileBytes)) {
			return
		}
	}

	for iter := 0; iter < a.Iters && err == nil; iter++ {
		iter := iter
		p.In("alsUpdateX", "als.cpp", 700, func() {
			// The loop body allocates all its temporaries up front — the
			// cudaMalloc block that NVProf ranks third.
			p.At(710)
			allocTemps()
			if err != nil {
				return
			}

			// Entries 1-2: duplicate tile uploads.
			upload(0, 738, false)
			upload(1, 739, false)
			if err != nil {
				return
			}

			// Phase-1 solve kernels; the early frees wait on them.
			for k := 0; k < 4; k++ {
				p.At(745 + k)
				if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "als_update_x", Duration: a.Phase1Kernel, Stream: gpu.LegacyStream,
				}); fail(e) {
					return
				}
			}
			free(760)
			free(768)
			free(775)
			free(790)
			upload(2, 801, false) // entry 7: duplicate
			if err != nil {
				return
			}
			free(812)
			free(855)
			free(856) // entry 10: first hoisted entry
			if err != nil {
				return
			}

			// Phase-2: the big factorization kernels (lines 860-876), then
			// the line-877 synchronization that waits them out.
			for k := 0; k < 6; k++ {
				p.At(860 + 2*k)
				if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
					Name: "als_solve", Duration: a.Phase2Kernel, Stream: gpu.LegacyStream,
					Writes: []cuda.KernelWrite{{Ptr: devResult.Base(), Size: 1024, Seed: uint64(iter*7 + k)}},
				}); fail(e) {
					return
				}
			}
			// Entry 11. The fixed build keeps this call: the paper
			// verified that removing the cudaDeviceSynchronize calls alone
			// had no impact on execution time, so the fix left the
			// synchronization structure in place and targeted the
			// allocation churn and duplicate transfers.
			p.At(877)
			p.Ctx.DeviceSynchronize()
		})
		if err != nil {
			break
		}

		p.In("alsSolveTheta", "solve.cu", 878, func() {
			free(878)
			free(890)
			upload(3, 902, true) // entry 14: duplicate, hoisted by the fix
			if err != nil {
				return
			}
			free(915)
			free(926)
			upload(4, 930, true) // entry 17: duplicate, hoisted by the fix
			if err != nil {
				return
			}
			free(941)
			free(950)
			free(965)
			free(972)
			free(986)
			free(987)

			// Necessary synchronization: pull the factors down and use
			// them immediately, ending the iteration's problem sequence.
			p.At(1010)
			if fail(p.Ctx.MemcpyD2H(result.Base(), devResult.Base(), 1024)) {
				return
			}
			if _, e := p.Read(result.Base(), 64, 1011); fail(e) {
				return
			}
			p.CPUWork(a.ModelWork)
		})
	}
	if err == nil && p.Content() {
		data, e := p.Host.Peek(result.Base(), 1024)
		if e != nil {
			return e
		}
		a.finalState.set(hashstore.Hash(data).Hex())
	}
	return err
}

// FinalState implements Checksummer.
func (a *CumfALS) FinalState() string { return a.finalState.get() }

func init() {
	register(Spec{
		Name:        "cumf_als",
		Description: "ALS matrix factorization (IBM/UIUC), MovieLens-10M-shaped workload",
		New:         func(scale float64, v Variant) proc.App { return NewCumfALS(scale, v) },
		Factory:     cumfFactory,
	})
}
