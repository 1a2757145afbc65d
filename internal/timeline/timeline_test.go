package timeline

import (
	"bytes"
	"strings"
	"testing"

	"diogenes/internal/gpu"
	"diogenes/internal/obs"
	"diogenes/internal/simtime"
	"diogenes/internal/trace"
)

// chrome renders an annotated run and device log through the model.
func chrome(run *trace.Run, ops []*gpu.Op) *obs.ChromeFile {
	return FromTrace(run, ops).Chrome()
}

// rowCount returns the number of distinct rows (tids) in the file.
func rowCount(f *obs.ChromeFile) int {
	rows := map[int]bool{}
	for _, e := range f.TraceEvents {
		rows[e.TID] = true
	}
	return len(rows)
}

// span returns the time range covered by the events, in microseconds.
func span(f *obs.ChromeFile) (start, end float64) {
	for i, e := range f.TraceEvents {
		if i == 0 || e.TS < start {
			start = e.TS
		}
		if i == 0 || e.TS+e.Dur > end {
			end = e.TS + e.Dur
		}
	}
	return start, end
}

func sample() (*trace.Run, []*gpu.Op) {
	run := &trace.Run{
		App: "x",
		Records: []trace.Record{
			{
				Seq: 1, Func: "cudaFree", Class: trace.ClassSync,
				Entry: simtime.Time(100 * simtime.Microsecond), Exit: simtime.Time(400 * simtime.Microsecond),
				SyncWait: 200 * simtime.Microsecond, Scope: "implicit",
			},
			{
				Seq: 2, Func: "cudaMemcpy", Class: trace.ClassTransfer,
				Entry: simtime.Time(500 * simtime.Microsecond), Exit: simtime.Time(700 * simtime.Microsecond),
				Duplicate: true,
			},
		},
	}
	ops := []*gpu.Op{
		{Kind: gpu.OpKernel, Name: "k", Stream: 0,
			Start: simtime.Time(50 * simtime.Microsecond), End: simtime.Time(350 * simtime.Microsecond)},
		{Kind: gpu.OpCopyH2D, Name: "memcpy HtoD", Stream: 2, Bytes: 4096,
			Start: simtime.Time(550 * simtime.Microsecond), End: simtime.Time(650 * simtime.Microsecond)},
	}
	return run, ops
}

func TestBuildRows(t *testing.T) {
	run, ops := sample()
	f := chrome(run, ops)
	// CPU call events (2) + wait slice (1) + GPU ops (2).
	if len(f.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(f.TraceEvents))
	}
	if rowCount(f) != 3 { // CPU + stream 0 + stream 2
		t.Fatalf("rows = %d, want 3", rowCount(f))
	}
	start, end := span(f)
	if start != 50 || end != 700 {
		t.Fatalf("span = [%v, %v], want [50, 700]", start, end)
	}
}

func TestWaitSlicePlacement(t *testing.T) {
	run, _ := sample()
	f := chrome(run, nil)
	var wait *obs.ChromeEvent
	for i := range f.TraceEvents {
		if f.TraceEvents[i].Name == "wait" {
			wait = &f.TraceEvents[i]
		}
	}
	if wait == nil {
		t.Fatal("no wait slice")
	}
	// Wait ends exactly at the call's exit (400us), lasting 200us.
	if wait.TS != 200 || wait.Dur != 200 {
		t.Fatalf("wait = ts %v dur %v, want ts 200 dur 200", wait.TS, wait.Dur)
	}
	if wait.Args["for"] != "cudaFree" {
		t.Fatalf("wait attribution = %v", wait.Args["for"])
	}
}

func TestAnnotationsCarried(t *testing.T) {
	run, _ := sample()
	f := chrome(run, nil)
	found := false
	for _, e := range f.TraceEvents {
		if e.Name == "cudaMemcpy" {
			if e.Args["duplicate"] != true {
				t.Fatalf("duplicate flag lost: %v", e.Args)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("memcpy event missing")
	}
}

func TestInfiniteKernelRendersAsMarker(t *testing.T) {
	ops := []*gpu.Op{{
		Kind: gpu.OpKernel, Name: "spin", Stream: 0,
		Start: simtime.Time(10 * simtime.Microsecond), End: simtime.Infinity,
	}}
	f := chrome(nil, ops)
	if len(f.TraceEvents) != 1 || f.TraceEvents[0].Dur != 0 {
		t.Fatalf("infinite kernel = %+v", f.TraceEvents)
	}
}

func TestRoundTrip(t *testing.T) {
	run, ops := sample()
	f := chrome(run, ops)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatal("missing traceEvents key")
	}
	got, err := obs.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != len(f.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.TraceEvents), len(f.TraceEvents))
	}
	if got.Metadata["app"] != "x" {
		t.Fatal("metadata lost")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := obs.ReadChrome(strings.NewReader("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	f := chrome(nil, nil)
	if rowCount(f) != 0 {
		t.Fatal("empty build has rows")
	}
	s, e := span(f)
	if s != 0 || e != 0 {
		t.Fatal("empty span nonzero")
	}
}
