package apps_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

// updateReplayGolden rewrites the committed replay golden files:
// go test ./internal/apps -run ReplayFidelity -update
var updateReplayGolden = flag.Bool("update", false, "rewrite replay fidelity golden files")

// fidelityScale keeps the captured traces small while exercising every
// modelled application's full call vocabulary.
const fidelityScale = 0.05

// renderAnalysis renders every analysis section the CLI prints for a run —
// the surface the replay fidelity claim is made over. (Raw stage times and
// call totals are run artifacts, not analysis results, and differ between
// an application and its replay.)
func renderAnalysis(t *testing.T, a *ffm.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Overview(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := report.Savings(&buf, a); err != nil {
		t.Fatal(err)
	}
	for _, s := range a.StaticSequences() {
		if err := report.Sequence(&buf, a, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range a.APIFolds() {
		if err := report.ExpandFold(&buf, a, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// captureTrace runs the FFM pipeline on an application and round-trips the
// annotated trace through its JSON interchange form — replay consumes
// exactly what a `diogenes run -records` file would contain.
func captureTrace(t *testing.T, spec apps.Spec, scale float64) (*ffm.Report, *trace.Run, ffm.Config) {
	t.Helper()
	cfg := ffm.DefaultConfig()
	cfg.Factory = spec.Factory()
	rep, err := ffm.Run(spec.Build(scale, apps.Original, cfg.Factory), cfg)
	if err != nil {
		t.Fatalf("capture run: %v", err)
	}
	var doc bytes.Buffer
	if err := rep.Trace.WriteJSON(&doc); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	run, err := trace.ReadJSON(&doc)
	if err != nil {
		t.Fatalf("trace import: %v", err)
	}
	return rep, run, cfg
}

// diffLines reports the first divergence between two renderings, with
// context, so a fidelity break points at the guilty section immediately.
func diffLines(t *testing.T, want, got []byte) {
	t.Helper()
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			t.Fatalf("first divergence at line %d:\noriginal: %s\nreplay:   %s", i+1, w[i], g[i])
		}
	}
	t.Fatalf("renderings differ in length: original %d lines, replay %d lines", len(w), len(g))
}

// TestReplayFidelity is the headline replay claim: replaying a modelled
// application's captured trace under the application's own machine
// configuration reproduces the application's FFM analysis byte for byte.
// The rendering is also pinned by committed golden files so a behaviour
// drift in either the apps or the replayer shows up as a diff.
func TestReplayFidelity(t *testing.T) {
	for _, name := range []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			orig, run, cfg := captureTrace(t, apps.Must(name), fidelityScale)
			want := renderAnalysis(t, orig.Analysis)

			replayed, err := ffm.Run(&apps.ReplayApp{Trace: run}, cfg)
			if err != nil {
				t.Fatalf("replay run: %v", err)
			}
			got := renderAnalysis(t, replayed.Analysis)
			if !bytes.Equal(want, got) {
				diffLines(t, want, got)
			}

			path := filepath.Join("testdata", fmt.Sprintf("replay_%s.golden", name))
			if *updateReplayGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (run with -update to create): %v", err)
			}
			if !bytes.Equal(golden, got) {
				t.Fatalf("replay analysis drifted from committed golden %s;\nrun with -update if the change is intended", path)
			}
		})
	}
}
