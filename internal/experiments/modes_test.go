package experiments_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/proc"
	"diogenes/internal/report"
)

// TestTimingOnlyMatchesContent runs every registered application at two
// scales, and the random family at two sizes, through the pipeline twice:
// as the pipeline builds its processes (only stage 3 keeps memory
// contents, only the reference run keeps a device-op log, MPI background
// ranks keep neither), and with every process of the launch keeping both.
// Virtual times, records, the reference run's device ops and the rendered
// report must be byte-identical: no timing depends on a byte.
func TestTimingOnlyMatchesContent(t *testing.T) {
	type target struct {
		name    string
		factory proc.Factory
		build   func(f proc.Factory) proc.App
	}
	var targets []target
	for _, spec := range apps.Registry() {
		for _, scale := range []float64{0.02, 0.05} {
			spec, scale := spec, scale
			targets = append(targets, target{
				name:    fmt.Sprintf("%s@%g", spec.Name, scale),
				factory: spec.Factory(),
				build:   func(f proc.Factory) proc.App { return spec.Build(scale, apps.Original, f) },
			})
		}
	}
	fam, err := apps.FamilyByName("random")
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int{20, 60} {
		steps := steps
		targets = append(targets, target{
			name:    fmt.Sprintf("random/%d", steps),
			factory: proc.DefaultFactory(),
			build:   func(f proc.Factory) proc.App { return fam.New(7, steps, f) },
		})
	}

	render := func(t *testing.T, tg target, f proc.Factory) (*ffm.Report, []byte) {
		t.Helper()
		cfg := ffm.DefaultConfig()
		cfg.Factory = f
		rep, err := ffm.Run(tg.build(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if err := report.Overview(&out, rep.Analysis); err != nil {
			t.Fatal(err)
		}
		return rep, out.Bytes()
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			var content atomic.Int64
			asBuilt := tg.factory
			asBuilt.Prepare = func(p *proc.Process) {
				if p.Content() {
					content.Add(1)
				}
			}
			rep, got := render(t, tg, asBuilt)
			if n := content.Load(); n != 1 {
				t.Fatalf("%d processes kept content, want 1 (stage 3's)", n)
			}
			if len(rep.DeviceOps) == 0 {
				t.Fatal("reference run kept no device ops")
			}

			full := tg.factory
			full.Prepare = func(p *proc.Process) { *p = *tg.factory.NewMode(proc.Content | proc.OpLog) }
			_, want := render(t, tg, full)
			if !bytes.Equal(got, want) {
				t.Fatalf("timing-only runs rendered %d bytes, content-keeping runs %d: reports differ", len(got), len(want))
			}
		})
	}
}
