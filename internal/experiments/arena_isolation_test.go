package experiments

import (
	"bytes"
	"sync"
	"testing"

	"diogenes/internal/trace"
)

// TestConcurrentRunAppsIsolatedRecordSlabs drives many concurrent,
// uncached Engine.RunApp calls and proves no live trace.Record slab is
// ever shared or recycled under a run that still holds it. Tracing now
// slab-allocates records from a process-wide pool (internal/trace.Arena),
// so the failure mode to rule out is one pipeline's records being
// scribbled over by another pipeline reusing its slab. Two detectors:
// the race detector (run this package with -race) flags any concurrent
// slab access, and the byte-comparison against a serial baseline flags
// recycled-slab corruption — a record overwritten after Finish would
// change the serialized trace.
func TestConcurrentRunAppsIsolatedRecordSlabs(t *testing.T) {
	const app = "rodinia_gaussian"
	baselineRep, err := (&Engine{Workers: 1}).RunApp(app, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	baseline := reportJSON(t, baselineRep)

	const racers = 8
	var wg sync.WaitGroup
	outputs := make([][]byte, racers)
	records := make([][]trace.Record, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Cache nil: every goroutine runs a full pipeline of its own,
			// allocating and releasing record slabs concurrently with the
			// other seven.
			eng := &Engine{Workers: 2}
			rep, err := eng.RunApp(app, goldenScale)
			if err != nil {
				errs[i] = err
				return
			}
			records[i] = rep.Trace.Records
			outputs[i] = reportJSON(t, rep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	for i, out := range outputs {
		if !bytes.Equal(out, baseline) {
			t.Errorf("racer %d: report diverges from serial baseline (%d vs %d bytes)", i, len(out), len(baseline))
		}
	}
	// Distinct runs must not alias record storage: every run's backing
	// array is a private Finish copy, so overwriting one must not be
	// visible in another.
	for i := 0; i < racers; i++ {
		if len(records[i]) == 0 {
			t.Fatalf("racer %d: no records", i)
		}
		for j := i + 1; j < racers; j++ {
			if &records[i][0] == &records[j][0] {
				t.Errorf("racers %d and %d share a record backing array", i, j)
			}
		}
	}
	// Recycling detector: scribble over racer 0's records, then confirm
	// racer 1's serialization is untouched (they share nothing), and that
	// a fresh run — which will reuse pooled slabs racer 0's arena
	// released — still matches the baseline.
	for k := range records[0] {
		records[0][k].Func = "scribbled"
		records[0][k].Seq = -1
	}
	again, err := (&Engine{Workers: 1}).RunApp(app, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, again), baseline) {
		t.Error("fresh run after scribbling a released arena's records diverges from baseline")
	}
	for k := range records[1] {
		if records[1][k].Func == "scribbled" || records[1][k].Seq < 0 {
			t.Fatalf("racer 1 record %d corrupted by writes to racer 0's records", k)
		}
	}
}
