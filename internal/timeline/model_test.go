package timeline_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"diogenes/internal/cuda"
	"diogenes/internal/experiments"
	"diogenes/internal/gpu"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
	"diogenes/internal/timeline"
	"diogenes/internal/trace"
)

// updateModelGolden rewrites the committed model goldens from the current
// serial pipeline output: go test ./internal/timeline -run Golden -update
var updateModelGolden = flag.Bool("update", false, "rewrite timeline model golden files")

const modelScale = 0.05

// modelJSON serializes a model the way every renderer receives it.
func modelJSON(t *testing.T, m *timeline.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateModelGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden (%d bytes, want %d) — the model is consumed by three renderers; if the change is intended rerun with -update", name, len(got), len(want))
	}
}

// TestModelDeterministicAcrossWorkers pins the tentpole invariant: the
// timeline model is a pure function of the run, so any engine worker count
// serializes it to identical bytes, and those bytes match the committed
// golden.
func TestModelDeterministicAcrossWorkers(t *testing.T) {
	var base []byte
	for _, workers := range []int{1, 4, 8} {
		eng := experiments.NewEngine(workers)
		rep, err := eng.RunApp("rodinia_gaussian", modelScale)
		if err != nil {
			t.Fatal(err)
		}
		got := modelJSON(t, timeline.FromReport("run", rep))
		if base == nil {
			base = got
			continue
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("-parallel %d model differs from serial (%d bytes vs %d)", workers, len(got), len(base))
		}
	}
	checkGolden(t, "model_run.golden.json", base)
}

// dupLinks collects a model's duplicate-transfer links in a comparable
// order.
func dupLinks(m *timeline.Model) []timeline.DupLink {
	links := append([]timeline.DupLink(nil), m.Links...)
	sort.Slice(links, func(i, j int) bool { return links[i].ToSeq < links[j].ToSeq })
	return links
}

// TestModelReplayDeterminism covers the replay path: replaying a captured
// trace is itself deterministic (same model bytes every time, at any
// worker count), and the replayed model preserves the structure the
// explorer links — the CPU record stream and the duplicate-transfer graph
// — even though collection-stage timings legitimately differ between a
// live run and its replay.
func TestModelReplayDeterminism(t *testing.T) {
	eng := experiments.NewEngine(1)
	orig, err := eng.RunApp("rodinia_gaussian", modelScale)
	if err != nil {
		t.Fatal(err)
	}

	var capture bytes.Buffer
	if err := orig.Trace.WriteJSON(&capture); err != nil {
		t.Fatal(err)
	}
	replay := func(workers int) *timeline.Model {
		run, err := trace.ReadJSON(bytes.NewReader(capture.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := (&experiments.Engine{Workers: workers}).Replay(run)
		if err != nil {
			t.Fatal(err)
		}
		return timeline.FromReport("replay", rep)
	}

	first := modelJSON(t, replay(1))
	for _, workers := range []int{1, 4} {
		if got := modelJSON(t, replay(workers)); !bytes.Equal(first, got) {
			t.Fatalf("replay model not deterministic at %d workers", workers)
		}
	}

	om, rm := timeline.FromReport("run", orig), replay(1)
	var origCPU, replCPU int
	for _, e := range om.Events {
		if e.Lane == "cpu" {
			origCPU++
		}
	}
	for _, e := range rm.Events {
		if e.Lane == "cpu" {
			replCPU++
		}
	}
	if origCPU == 0 || origCPU != replCPU {
		t.Fatalf("replay lost CPU records: %d vs original %d", replCPU, origCPU)
	}
	ol, rl := dupLinks(om), dupLinks(rm)
	if len(ol) == 0 {
		t.Fatal("original model has no duplicate links to check")
	}
	if len(ol) != len(rl) {
		t.Fatalf("replay duplicate links: %d, want %d", len(rl), len(ol))
	}
	for i := range ol {
		if ol[i] != rl[i] {
			t.Fatalf("duplicate link %d differs: %+v vs %+v", i, rl[i], ol[i])
		}
	}
}

// rampRanks is a bulk-synchronous program whose per-step kernel grows with
// the rank, so the highest rank straggles at every barrier — the fleet
// golden needs real skew ribbons.
type rampRanks struct{ steps int }

func (s *rampRanks) Name() string { return "ramp-ranks" }
func (s *rampRanks) Steps() int   { return s.steps }

func (s *rampRanks) Setup(p *proc.Process, rank int) (mpi.RankState, error) { return nil, nil }

func (s *rampRanks) Step(p *proc.Process, rank int, st mpi.RankState, step int) error {
	var err error
	p.In("superstep", "ramp.c", 10, func() {
		if _, e := p.Ctx.LaunchKernel(cuda.KernelSpec{
			Name:     "sweep",
			Duration: simtime.Duration(1+rank) * simtime.Millisecond,
			Stream:   gpu.LegacyStream,
		}); e != nil {
			err = e
			return
		}
		p.Ctx.DeviceSynchronize()
		p.CPUWork(100 * simtime.Microsecond)
	})
	return err
}

// TestModelFleetGolden pins the fleet model — rank lanes, the barrier
// lane, and the skew ribbons that tie each straggler to the barriers that
// charged it — to a committed golden, byte-identical at any worker count.
func TestModelFleetGolden(t *testing.T) {
	build := func(workers int) *timeline.Model {
		eng := experiments.NewEngine(workers)
		fr, err := eng.FleetOver("ramp-ranks", func(int) mpi.RankProgram { return &rampRanks{steps: 3} }, mpi.Config{
			Ranks:          3,
			BarrierLatency: 25 * simtime.Microsecond,
			Factory:        proc.DefaultFactory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return timeline.FromFleet(fr)
	}
	m := build(1)
	if got := modelJSON(t, build(4)); !bytes.Equal(modelJSON(t, m), got) {
		t.Fatal("fleet model differs across worker counts")
	}

	if len(m.Ribbons) == 0 {
		t.Fatal("imbalanced fleet produced no skew ribbons")
	}
	for _, r := range m.Ribbons {
		if r.Rank != 2 {
			t.Fatalf("ribbon charged to rank %d, want straggler rank 2: %+v", r.Rank, r)
		}
		if r.Wait <= 0 || len(r.RankWaits) != 3 {
			t.Fatalf("degenerate ribbon: %+v", r)
		}
	}
	var rankLanes, barrierLanes int
	for _, l := range m.Lanes {
		switch l.Kind {
		case timeline.LaneRank:
			rankLanes++
			if l.Rank == 2 && l.Straggles == 0 {
				t.Fatal("straggler lane carries no straggle count")
			}
		case timeline.LaneBarrier:
			barrierLanes++
		}
	}
	if rankLanes != 3 || barrierLanes != 1 {
		t.Fatalf("fleet lanes: %d rank, %d barrier", rankLanes, barrierLanes)
	}
	checkGolden(t, "model_fleet.golden.json", modelJSON(t, m))
}

// TestChromeFromReportMatchesTrace pins the export seam: the
// report-derived model (which adds overlays) renders the identical Chrome
// trace to the trace-derived one — overlays must never leak into the
// Chrome export.
func TestChromeFromReportMatchesTrace(t *testing.T) {
	eng := experiments.NewEngine(1)
	rep, err := eng.RunApp("cuibm", modelScale)
	if err != nil {
		t.Fatal(err)
	}
	var viaTrace, viaReport bytes.Buffer
	if err := timeline.FromTrace(rep.Trace, rep.DeviceOps).Chrome().Write(&viaTrace); err != nil {
		t.Fatal(err)
	}
	if err := timeline.FromReport("run", rep).Chrome().Write(&viaReport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaTrace.Bytes(), viaReport.Bytes()) {
		t.Fatal("FromReport().Chrome() diverged from FromTrace().Chrome() — overlays leaked into the Chrome export")
	}
}
