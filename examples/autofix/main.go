// autofix: the paper's §6 future work, working end to end — derive a patch
// plan from an FFM analysis, apply it by call-site elision, validate the
// realized benefit, and demonstrate the §5.1 const/mprotect correctness
// guard rejecting an unsafe deduplication when the input changes.
//
//	go run ./examples/autofix
package main

import (
	"fmt"
	"log"

	"diogenes"
	"diogenes/internal/autofix"
	"diogenes/internal/cuda"
	"diogenes/internal/ffm"
	"diogenes/internal/gpu"
	"diogenes/internal/simtime"
)

// solverApp uploads an unchanged stencil every step and frees a scratch
// buffer while its kernel runs. With mutate=true the "unchanged" stencil is
// updated halfway — the case the guard must catch.
type solverApp struct {
	steps  int
	mutate bool
}

func (solverApp) Name() string { return "solver" }

func (a solverApp) Run(p *diogenes.Process) error {
	const stencilBytes = 24 << 10
	stencil := p.Host.Alloc(stencilBytes, "stencil")
	out := p.Host.Alloc(4096, "out")
	fill := make([]byte, stencilBytes)
	simtime.NewRNG(11).Bytes(fill)
	if err := p.Host.Poke(stencil.Base(), fill); err != nil {
		return err
	}
	devStencil, err := p.Ctx.Malloc(stencilBytes, "dev stencil")
	if err != nil {
		return err
	}
	devOut, err := p.Ctx.Malloc(4096, "dev out")
	if err != nil {
		return err
	}

	var runErr error
	for s := 0; s < a.steps && runErr == nil; s++ {
		s := s
		p.In("advance", "solver.cpp", 60, func() {
			if a.mutate && s == a.steps/2 {
				p.At(61)
				if runErr = p.Write(stencil.Base(), []byte{0xFF}, 61); runErr != nil {
					return
				}
			}
			p.At(63)
			if runErr = p.Ctx.MemcpyH2D(devStencil.Base(), stencil.Base(), stencilBytes); runErr != nil {
				return
			}
			scratch, err := p.Ctx.Malloc(8<<10, "scratch")
			if err != nil {
				runErr = err
				return
			}
			p.At(66)
			if _, err := p.Ctx.LaunchKernel(cuda.KernelSpec{
				Name: "stencil_sweep", Duration: 1500 * simtime.Microsecond, Stream: gpu.LegacyStream,
				Writes: []cuda.KernelWrite{{Ptr: devOut.Base(), Size: 256, Seed: uint64(s)}},
			}); err != nil {
				runErr = err
				return
			}
			p.CPUWork(250 * simtime.Microsecond)
			p.At(70)
			if runErr = p.Ctx.Free(scratch); runErr != nil {
				return
			}
			p.CPUWork(350 * simtime.Microsecond)
			p.At(74)
			if runErr = p.Ctx.MemcpyD2H(out.Base(), devOut.Base(), 256); runErr != nil {
				return
			}
			if _, err := p.Read(out.Base(), 16, 75); err != nil {
				runErr = err
			}
		})
	}
	return runErr
}

func main() {
	factory := diogenes.DefaultFactory()

	fmt.Println("1. Measure: run the five FFM stages.")
	rep, err := ffm.Run(solverApp{steps: 40}, diogenes.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("2. Plan: derive call-site corrections from the analysis.")
	plan := autofix.BuildPlan(rep.Analysis)
	for i, a := range plan.Actions {
		fmt.Printf("   %d. [%s] %s — est %.3fs over %d occurrences\n",
			i+1, a.Kind, a.Label, a.Estimated.Seconds(), a.Count)
	}
	for _, s := range plan.Skipped {
		fmt.Printf("   skipped: %s\n", s)
	}

	fmt.Println("3. Apply & validate: elide the calls, guard transfer sources.")
	v, err := autofix.Apply(solverApp{steps: 40}, factory, plan, autofix.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   original %.3fs -> patched %.3fs: realized %.3fs (%.1f%%; estimated %.1f%%)\n",
		v.OriginalTime.Seconds(), v.PatchedTime.Seconds(),
		v.Realized.Seconds(), v.RealizedPct, v.EstimatedPct)
	fmt.Printf("   %d calls elided, %d transfer sources write-protected\n",
		v.SuppressedCalls, v.GuardedRanges)

	fmt.Println("4. Safety: the same plan on an input that mutates the stencil.")
	v2, err := autofix.Apply(solverApp{steps: 40, mutate: true}, factory, plan, autofix.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if v2.Valid {
		log.Fatal("expected the correctness guard to reject the fix")
	}
	fmt.Printf("   FIX REJECTED, as it must be:\n   %s\n", v2.GuardViolation)
	fmt.Println("\nThis is §5.1's const/mprotect validation automated: a removed")
	fmt.Println("transfer's source pages are write-protected, so an input that")
	fmt.Println("invalidates the deduplication faults instead of corrupting results.")
}
