package apps

import (
	"testing"

	"diogenes/internal/cuda"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// tinyScale keeps unit-test workloads to a handful of iterations.
const tinyScale = 0.02

func runApp(t *testing.T, name string, v Variant) simtime.Duration {
	t.Helper()
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Factory().New()
	if err := spec.New(tinyScale, v).Run(p); err != nil {
		t.Fatalf("%s(%v): %v", name, v, err)
	}
	return p.ExecTime()
}

func TestRegistryOrder(t *testing.T) {
	reg := Registry()
	if len(reg) != 4 {
		t.Fatalf("registry has %d apps, want 4", len(reg))
	}
	want := []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"}
	for i, name := range want {
		if reg[i].Name != name {
			t.Fatalf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
		if reg[i].Description == "" {
			t.Fatalf("%s missing description", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("hpl"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAllAppsRunBothVariants(t *testing.T) {
	for _, spec := range Registry() {
		for _, v := range []Variant{Original, Fixed} {
			if d := runApp(t, spec.Name, v); d <= 0 {
				t.Fatalf("%s(%v) took no time", spec.Name, v)
			}
		}
	}
}

func TestFixedVariantsAreFaster(t *testing.T) {
	for _, spec := range Registry() {
		orig := runApp(t, spec.Name, Original)
		fixed := runApp(t, spec.Name, Fixed)
		if fixed >= orig {
			t.Errorf("%s: fixed (%v) not faster than original (%v)", spec.Name, fixed, orig)
		}
	}
}

func TestAppsAreDeterministic(t *testing.T) {
	for _, spec := range Registry() {
		a := runApp(t, spec.Name, Original)
		b := runApp(t, spec.Name, Original)
		if a != b {
			t.Errorf("%s: runs differ: %v vs %v", spec.Name, a, b)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if Original.String() != "original" || Fixed.String() != "fixed" {
		t.Fatal("variant strings wrong")
	}
	app := NewCumfALS(tinyScale, Fixed)
	if app.Name() != "cumf_als(fixed)" {
		t.Fatalf("Name = %q", app.Name())
	}
	if NewCuIBM(tinyScale, Fixed).Name() != "cuibm(fixed)" ||
		NewAMG(tinyScale, Fixed).Name() != "amg(fixed)" ||
		NewRodiniaGaussian(tinyScale, Fixed).Name() != "rodinia_gaussian(fixed)" {
		t.Fatal("fixed names wrong")
	}
}

func TestScaledBounds(t *testing.T) {
	if scaled(100, 0) != 1 {
		t.Fatal("zero scale should clamp to 1")
	}
	if scaled(100, 1) != 100 || scaled(100, 0.5) != 50 {
		t.Fatal("scaled wrong")
	}
}

func TestCumfALSCallMix(t *testing.T) {
	spec, _ := ByName("cumf_als")
	p := spec.Factory().New()
	app := NewCumfALS(0, Original) // one iteration
	if err := app.Run(p); err != nil {
		t.Fatal(err)
	}
	counts := p.Ctx.CallCounts()
	if counts["cudaFree"] != 17 {
		t.Errorf("cudaFree = %d, want 17 per iteration", counts["cudaFree"])
	}
	// 5 dev tiles + 1 result + 17 temps.
	if counts["cudaMalloc"] != 23 {
		t.Errorf("cudaMalloc = %d, want 23", counts["cudaMalloc"])
	}
	// 5 uploads + 1 readback.
	if counts["cudaMemcpy"] != 6 {
		t.Errorf("cudaMemcpy = %d, want 6", counts["cudaMemcpy"])
	}
	if counts["cudaDeviceSynchronize"] != 1 {
		t.Errorf("cudaDeviceSynchronize = %d, want 1", counts["cudaDeviceSynchronize"])
	}
}

func TestCumfALSFixedSkipsHoistedChurn(t *testing.T) {
	spec, _ := ByName("cumf_als")
	orig, fixed := spec.Factory().New(), spec.Factory().New()
	if err := NewCumfALS(0, Original).Run(orig); err != nil {
		t.Fatal(err)
	}
	if err := NewCumfALS(0, Fixed).Run(fixed); err != nil {
		t.Fatal(err)
	}
	co, cf := orig.Ctx.CallCounts(), fixed.Ctx.CallCounts()
	if cf["cudaFree"] >= co["cudaFree"] {
		t.Fatalf("fixed frees %d not fewer than original %d", cf["cudaFree"], co["cudaFree"])
	}
	// 11 of 17 free lines are hoisted (line 856 plus the ten late ones).
	if cf["cudaFree"] != 6 {
		t.Fatalf("fixed cudaFree = %d, want 6", cf["cudaFree"])
	}
	// The fixed build keeps the line-877 synchronization.
	if cf["cudaDeviceSynchronize"] != co["cudaDeviceSynchronize"] {
		t.Fatal("fixed build dropped the device synchronization")
	}
}

func TestCuIBMChurnSites(t *testing.T) {
	spec, _ := ByName("cuibm")
	p := spec.Factory().New()
	var leaves []string
	p.Ctx.SetStackCapture(true)
	attachFreeStackProbe(p, &leaves)
	if err := NewCuIBM(0, Original).Run(p); err != nil {
		t.Fatal(err)
	}
	foundTemplate := false
	for _, l := range leaves {
		if l == "thrust::detail::contiguous_storage<float, thrust::device_malloc_allocator<float>>::allocate" {
			foundTemplate = true
		}
	}
	if !foundTemplate {
		t.Fatalf("no contiguous_storage frame on cudaFree stacks: %v", leaves)
	}
}

func TestAMGManagedMemsetOnlyInOriginal(t *testing.T) {
	spec, _ := ByName("amg")
	orig, fixed := spec.Factory().New(), spec.Factory().New()
	if err := NewAMG(0, Original).Run(orig); err != nil {
		t.Fatal(err)
	}
	if err := NewAMG(0, Fixed).Run(fixed); err != nil {
		t.Fatal(err)
	}
	if orig.Ctx.CallCounts()["cudaMemset"] == 0 {
		t.Fatal("original AMG performs no cudaMemset")
	}
	if fixed.Ctx.CallCounts()["cudaMemset"] != 0 {
		t.Fatal("fixed AMG still calls cudaMemset")
	}
}

func TestRodiniaFixedDropsThreadSync(t *testing.T) {
	spec, _ := ByName("rodinia_gaussian")
	orig, fixed := spec.Factory().New(), spec.Factory().New()
	if err := NewRodiniaGaussian(0.01, Original).Run(orig); err != nil {
		t.Fatal(err)
	}
	if err := NewRodiniaGaussian(0.01, Fixed).Run(fixed); err != nil {
		t.Fatal(err)
	}
	if orig.Ctx.CallCounts()["cudaThreadSynchronize"] == 0 {
		t.Fatal("original gaussian never calls cudaThreadSynchronize")
	}
	if fixed.Ctx.CallCounts()["cudaThreadSynchronize"] != 0 {
		t.Fatal("fixed gaussian still synchronizes per row")
	}
	if fixed.Ctx.CallCounts()["cudaLaunchKernel"] != orig.Ctx.CallCounts()["cudaLaunchKernel"] {
		t.Fatal("fix changed the kernel work")
	}
}

func attachFreeStackProbe(p *proc.Process, leaves *[]string) {
	p.Ctx.AttachProbe(cuda.FuncFree, cuda.Probe{Exit: func(c *cuda.Call) {
		*leaves = append(*leaves, c.Stack.Leaf().Function)
	}})
}

// checkableApp is an application that also digests its results.
type checkableApp interface {
	proc.App
	Checksummer
}

// TestFixesPreserveResults is the §5.1 correctness requirement applied to
// the modelled fixes: each Fixed variant must compute byte-identical
// results to the Original.
func TestFixesPreserveResults(t *testing.T) {
	builders := map[string]func(Variant) checkableApp{
		"cumf_als":         func(v Variant) checkableApp { return NewCumfALS(tinyScale, v) },
		"cuibm":            func(v Variant) checkableApp { return NewCuIBM(tinyScale, v) },
		"amg":              func(v Variant) checkableApp { return NewAMG(tinyScale, v) },
		"rodinia_gaussian": func(v Variant) checkableApp { return NewRodiniaGaussian(tinyScale, v) },
	}
	for name, build := range builders {
		spec, _ := ByName(name)
		digests := map[Variant]string{}
		for _, v := range []Variant{Original, Fixed} {
			app := build(v)
			p := spec.Factory().NewMode(proc.Content)
			if err := app.Run(p); err != nil {
				t.Fatalf("%s(%v): %v", name, v, err)
			}
			d := app.FinalState()
			if d == "" {
				t.Fatalf("%s(%v): no final-state digest", name, v)
			}
			digests[v] = d
		}
		if digests[Original] != digests[Fixed] {
			t.Errorf("%s: fix changed results: %s vs %s",
				name, digests[Original][:12], digests[Fixed][:12])
		}
	}
}

func TestExtremeWorkload(t *testing.T) {
	p := ExtremeFactory().New()
	app := NewExtreme(0.05)
	if err := app.Run(p); err != nil {
		t.Fatal(err)
	}
	counts := p.Ctx.CallCounts()
	if counts["cudaMemcpy"] < 20 || counts["cudaFree"] < 20 || counts["cudaDeviceSynchronize"] < 20 {
		t.Fatalf("call mix off: %v", counts)
	}
	// Determinism.
	p2 := ExtremeFactory().New()
	if err := NewExtreme(0.05).Run(p2); err != nil {
		t.Fatal(err)
	}
	if p.ExecTime() != p2.ExecTime() {
		t.Fatal("extreme workload nondeterministic")
	}
}

func TestRandomAppDeterministicAndSeedSensitive(t *testing.T) {
	run := func(seed uint64) simtime.Duration {
		p := proc.DefaultFactory().New()
		if err := NewRandomApp(seed, 60).Run(p); err != nil {
			t.Fatal(err)
		}
		return p.ExecTime()
	}
	if run(5) != run(5) {
		t.Fatal("same seed diverged")
	}
	if run(5) == run(6) {
		t.Fatal("different seeds produced identical timing (suspicious)")
	}
}

func TestRandomAppMultiDevice(t *testing.T) {
	f := proc.DefaultFactory()
	f.Devices = 3
	p := f.New()
	app := NewRandomApp(9, 80)
	app.MaxDevices = 3
	if err := app.Run(p); err != nil {
		t.Fatal(err)
	}
	if p.Ctx.CallCounts()["cudaSetDevice"] == 0 {
		t.Fatal("multi-device random app never switched devices")
	}
}
