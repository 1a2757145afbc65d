package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"diogenes/internal/obs"
)

// chromeBytes runs one app through an engine carrying a fresh observer and
// returns the Chrome trace export.
func chromeBytes(t *testing.T, eng *Engine, name string) []byte {
	t.Helper()
	o := obs.New("diogenes")
	eng.SetObserver(o)
	if _, err := eng.RunApp(name, goldenScale); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Trace().Chrome().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsTraceDeterministic extends the determinism claim to the
// self-measurement layer: the Chrome span trace recorded while running a
// pipeline is byte-identical between the serial engine and a four-worker
// engine with concurrent collection stages. Spans carry only virtual-time
// placement in the export, so scheduling cannot leak into it.
func TestObsTraceDeterministic(t *testing.T) {
	serial := chromeBytes(t, &Engine{Workers: 1}, "rodinia_gaussian")
	parallel := chromeBytes(t, NewEngine(4), "rodinia_gaussian")
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("span trace differs between serial and parallel engines (%d vs %d bytes)",
			len(serial), len(parallel))
	}

	f, err := obs.ReadChrome(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		"reference", "stage1-baseline", "stage2-detailed-tracing",
		"stage3-memory-tracing", "stage4-sync-use", "stage5-analysis",
	} {
		if len(f.EventsNamed(stage)) == 0 {
			t.Errorf("trace missing stage span %q", stage)
		}
	}
}

// TestObsTraceGolden pins the span-trace layout itself: the Chrome export
// of a serial rodinia_gaussian pipeline — event order, virtual placement,
// rows, args and file metadata — matches the committed bytes. The
// determinism test above only proves serial and parallel agree.
func TestObsTraceGolden(t *testing.T) {
	got := chromeBytes(t, &Engine{Workers: 1}, "rodinia_gaussian")
	path := filepath.Join("testdata", "rodinia_gaussian.spans.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("span trace diverged from golden %s (got %d bytes, want %d)\n--- got ---\n%s",
			path, len(got), len(want), got)
	}
}

// TestObsZeroPerturbation proves observing a run never changes it: the full
// report JSON from an instrumented pipeline is byte-identical to the report
// from an unobserved one. The self-measurement layer reads the pipeline;
// it must not steer it.
func TestObsZeroPerturbation(t *testing.T) {
	plain := &Engine{Workers: 1}
	observed := &Engine{Workers: 1}
	observed.SetObserver(obs.New("diogenes"))
	for _, name := range []string{"rodinia_gaussian", "amg"} {
		pRep, err := plain.RunApp(name, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		oRep, err := observed.RunApp(name, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportJSON(t, pRep), reportJSON(t, oRep)) {
			t.Fatalf("%s: attaching an observer changed the report", name)
		}
	}
}

// TestObsCacheHitRecordsNoSpans pins the honesty rule: a cached report is
// returned without running the pipeline, so no stage spans may appear for
// the second request.
func TestObsCacheHitRecordsNoSpans(t *testing.T) {
	eng := NewEngine(1)
	o1 := obs.New("diogenes")
	eng.SetObserver(o1)
	if _, err := eng.RunApp("rodinia_gaussian", goldenScale); err != nil {
		t.Fatal(err)
	}
	if len(o1.Root().Children()) == 0 {
		t.Fatal("first (miss) run recorded no spans")
	}

	o2 := obs.New("diogenes")
	eng.SetObserver(o2)
	if _, err := eng.RunApp("rodinia_gaussian", goldenScale); err != nil {
		t.Fatal(err)
	}
	if n := len(o2.Root().Children()); n != 0 {
		t.Fatalf("cache hit recorded %d spans; a hit means no pipeline ran", n)
	}
	if o2.Metrics().Counter("cache/hits").Value() != 1 {
		t.Fatal("cache hit not booked on cache/hits")
	}
}
