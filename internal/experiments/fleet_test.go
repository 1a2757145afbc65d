package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/cuda"
	"diogenes/internal/ffm"
	"diogenes/internal/gpu"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// fleetJSON serializes a fleet report.
func fleetJSON(t *testing.T, fr *ffm.FleetReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetDeterministicAcrossWorkers is the fleet determinism claim: the
// all-ranks analysis is byte-identical whether the rank pipelines run
// serially or fan out over 4 or 8 workers (with stage-level parallelism
// inside each pipeline), and matches the committed golden file.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		eng := NewEngine(workers)
		fr, err := eng.Fleet("amg", goldenScale, 4)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fr.Partial {
			t.Fatalf("workers=%d: healthy fleet reported partial", workers)
		}
		got := fleetJSON(t, fr)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: fleet report differs from serial (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}

	path := filepath.Join("testdata", "fleet_amg.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, golden) {
		t.Fatalf("fleet report diverged from golden %s (got %d bytes, want %d); rerun with -update if the change is intended",
			path, len(want), len(golden))
	}
}

// TestFleetMergesCrossRankDuplicates asserts the aggregation actually finds
// cross-rank duplicate transfers on AMG: every rank's residual-norm D2H
// copy carries a payload seeded only by the cycle, so each cycle's digest
// appears on all ranks.
func TestFleetMergesCrossRankDuplicates(t *testing.T) {
	fr, err := NewEngine(4).Fleet("amg", goldenScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Duplicates) == 0 {
		t.Fatal("no cross-rank duplicate-transfer findings")
	}
	for _, d := range fr.Duplicates {
		if len(d.Ranks) < 2 {
			t.Fatalf("finding %q spans %d ranks, want >= 2", d.Hash, len(d.Ranks))
		}
	}
	top := fr.Duplicates[0]
	if len(top.Ranks) != 4 {
		t.Fatalf("top finding %q spans ranks %v, want all 4", top.Hash, top.Ranks)
	}
	if top.Bytes <= 0 || fr.CrossRankDupBytes < top.Bytes {
		t.Fatalf("implausible duplicate volume: top %d, total %d", top.Bytes, fr.CrossRankDupBytes)
	}
	if len(fr.Problems) == 0 {
		t.Fatal("no aggregated problem groups")
	}
	for _, p := range fr.Problems {
		if p.Min > p.Max || p.Total < p.Max {
			t.Fatalf("inconsistent problem spread: %+v", p)
		}
	}
}

// TestFleetReusesCache proves per-rank pipelines are memoized: a second
// Fleet call on the same engine serves every rank from the cache and
// produces byte-identical output.
func TestFleetReusesCache(t *testing.T) {
	eng := NewEngine(2)
	first, err := eng.Fleet("amg", goldenScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, misses, _ := eng.Cache.Stats()
	second, err := eng.Fleet("amg", goldenScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, missesAfter, _ := eng.Cache.Stats()
	if missesAfter != misses {
		t.Fatalf("second fleet run re-ran %d pipelines", missesAfter-misses)
	}
	if hitsAfter < hitsBefore+2 {
		t.Fatalf("expected 2 cache hits, got %d", hitsAfter-hitsBefore)
	}
	for _, o := range second.PerRank {
		if !o.FromCache {
			t.Fatalf("rank %d not served from cache", o.Rank)
		}
	}
	// FromCache is the only field allowed to differ.
	for i := range first.PerRank {
		first.PerRank[i].FromCache = second.PerRank[i].FromCache
	}
	if !bytes.Equal(fleetJSON(t, first), fleetJSON(t, second)) {
		t.Fatal("cached fleet report differs from the computed one")
	}
}

// faultyProg wraps a rank program and fails one rank's Step, either by
// panicking or by returning an error.
type faultyProg struct {
	mpi.RankProgram
	failRank int
	panics   bool
}

func (f *faultyProg) Step(p *proc.Process, rank int, st mpi.RankState, step int) error {
	if rank == f.failRank {
		if f.panics {
			panic("injected rank fault")
		}
		return errInjected
	}
	return f.RankProgram.Step(p, rank, st, step)
}

var errInjected = errorString("injected rank error")

type errorString string

func (e errorString) Error() string { return string(e) }

// amgFleetConfig builds the explicit launch config FleetOver needs for the
// amg rank program.
func amgFleetConfig(ranks int) mpi.Config {
	spec := apps.Must("amg")
	return mpi.Config{
		Ranks:          ranks,
		BarrierLatency: spec.MPI.BarrierLatency,
		Factory:        spec.Factory(),
	}
}

// TestFleetContainsPanickingRank injects a panic into rank 2's Step — in
// the pipeline instance observing rank 2, modelling that rank's tool
// instance crashing — and asserts the launch degrades to a partial report
// naming exactly that rank, never an error. Run under -race this also
// proves containment is clean across the worker pool.
func TestFleetContainsPanickingRank(t *testing.T) {
	spec := apps.Must("amg")
	eng := NewEngine(4)
	eng.FleetBackoff = time.Nanosecond
	newProg := func(observed int) mpi.RankProgram {
		prog := spec.MPI.Program(goldenScale, apps.Original)
		if observed == 2 {
			return &faultyProg{RankProgram: prog, failRank: 2, panics: true}
		}
		return prog
	}
	fr, err := eng.FleetOver("amg", newProg, amgFleetConfig(4))
	if err != nil {
		t.Fatalf("injected panic failed the launch: %v", err)
	}
	if !fr.Partial {
		t.Fatal("report not marked partial")
	}
	if len(fr.FailedRanks) != 1 || fr.FailedRanks[0] != 2 {
		t.Fatalf("failed ranks = %v, want [2]", fr.FailedRanks)
	}
	if fr.Analyzed != 3 {
		t.Fatalf("analyzed = %d, want 3", fr.Analyzed)
	}
	bad := fr.PerRank[2]
	if !bad.Failed() || bad.Err == "" || bad.Attempts != 2 || !bad.Retried {
		t.Fatalf("failed rank outcome = %+v", bad)
	}
	for _, r := range []int{0, 1, 3} {
		if fr.PerRank[r].Failed() {
			t.Fatalf("healthy rank %d has no report: %+v", r, fr.PerRank[r])
		}
	}
	// The surviving ranks' reference runs carry the skew account.
	if fr.Skew == nil {
		t.Fatal("skew account lost")
	}
	// Cross-rank aggregation still works over the surviving ranks.
	if len(fr.Duplicates) == 0 {
		t.Fatal("no cross-rank findings from surviving ranks")
	}
}

// TestFleetContainsErroringRank is the error-return variant of containment.
func TestFleetContainsErroringRank(t *testing.T) {
	spec := apps.Must("amg")
	eng := NewEngine(2)
	eng.FleetBackoff = time.Nanosecond
	newProg := func(observed int) mpi.RankProgram {
		prog := spec.MPI.Program(goldenScale, apps.Original)
		if observed == 0 {
			return &faultyProg{RankProgram: prog, failRank: 0}
		}
		return prog
	}
	fr, err := eng.FleetOver("amg", newProg, amgFleetConfig(2))
	if err != nil {
		t.Fatalf("injected error failed the launch: %v", err)
	}
	if !fr.Partial || len(fr.FailedRanks) != 1 || fr.FailedRanks[0] != 0 {
		t.Fatalf("partial=%v failed=%v, want partial naming rank 0", fr.Partial, fr.FailedRanks)
	}
	if fr.PerRank[1].Failed() {
		t.Fatal("healthy rank 1 lost its report")
	}
	// Rank 0's attribution is gone with its report; rank 1's reference
	// run supplies the same one a healthy launch takes from rank 0.
	healthy, err := NewEngine(2).FleetOver("amg", func(int) mpi.RankProgram {
		return spec.MPI.Program(goldenScale, apps.Original)
	}, amgFleetConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Skew == nil || !reflect.DeepEqual(fr.Skew, healthy.Skew) {
		t.Fatalf("skew with rank 0 failed = %+v, healthy launch's = %+v", fr.Skew, healthy.Skew)
	}
}

// TestFleetDegradesWhenAppBroken is the worst case: the application fault
// is deterministic and hits every world of every pipeline. The launch
// still exits cleanly with a fully degraded report.
func TestFleetDegradesWhenAppBroken(t *testing.T) {
	spec := apps.Must("amg")
	eng := NewEngine(2)
	eng.FleetBackoff = time.Nanosecond
	newProg := func(int) mpi.RankProgram {
		return &faultyProg{
			RankProgram: spec.MPI.Program(goldenScale, apps.Original),
			failRank:    0,
			panics:      true,
		}
	}
	fr, err := eng.FleetOver("amg", newProg, amgFleetConfig(2))
	if err != nil {
		t.Fatalf("broken app failed the launch: %v", err)
	}
	if !fr.Partial || fr.Analyzed != 0 || len(fr.FailedRanks) != 2 {
		t.Fatalf("partial=%v analyzed=%d failed=%v, want full degradation", fr.Partial, fr.Analyzed, fr.FailedRanks)
	}
	if fr.Skew != nil {
		t.Fatalf("skew survived a deterministic world fault: %+v", fr.Skew)
	}
}

// skewedRanks is a BSP program whose per-step cost grows with the rank, so
// the highest rank straggles at every barrier.
type skewedRanks struct{ steps int }

func (s *skewedRanks) Name() string { return "skewed-ranks" }
func (s *skewedRanks) Steps() int   { return s.steps }

func (s *skewedRanks) Setup(p *proc.Process, rank int) (mpi.RankState, error) {
	return nil, nil
}

func (s *skewedRanks) Step(p *proc.Process, rank int, st mpi.RankState, step int) error {
	var err error
	p.In("superstep", "skewed.c", 10, func() {
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

// TestFleetSkewAttribution checks the straggler accounting on a deliberately
// imbalanced world: the slowest rank is charged all the wait.
func TestFleetSkewAttribution(t *testing.T) {
	eng := NewEngine(2)
	newProg := func(int) mpi.RankProgram { return &skewedRanks{steps: 3} }
	fr, err := eng.FleetOver("skewed-ranks", newProg, mpi.Config{
		Ranks:          3,
		BarrierLatency: 25 * simtime.Microsecond,
		Factory:        proc.DefaultFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Skew == nil {
		t.Fatal("no skew account")
	}
	if fr.Skew.Straggler != 2 {
		t.Fatalf("straggler = %d, want rank 2", fr.Skew.Straggler)
	}
	if fr.Skew.TotalWait <= 0 {
		t.Fatalf("total wait = %v, want > 0", fr.Skew.TotalWait)
	}
	if got := fr.Skew.PerRank[2]; got.Charged != fr.Skew.TotalWait || got.Waited != 0 {
		t.Fatalf("straggler account = %+v, want all %v charged", got, fr.Skew.TotalWait)
	}
}

// TestFleetValidation pins the request-level error paths: these are the
// only ways Fleet may fail.
func TestFleetValidation(t *testing.T) {
	eng := NewEngine(1)
	if _, err := eng.Fleet("hpl", goldenScale, 2); err == nil {
		t.Fatal("unknown application accepted")
	}
	if _, err := eng.Fleet("cumf_als", goldenScale, 2); err == nil {
		t.Fatal("single-process application accepted")
	}
	if _, err := eng.Fleet("amg", goldenScale, -2); err == nil {
		t.Fatal("negative rank count accepted")
	}
	// ranks 0 selects the application default.
	fr, err := eng.Fleet("amg", goldenScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Ranks != apps.Must("amg").MPI.DefaultRanks {
		t.Fatalf("default ranks = %d, want %d", fr.Ranks, apps.Must("amg").MPI.DefaultRanks)
	}
}

// TestFleetSuiteKey pins the persistent-store key for fleet requests:
// stable, sensitive to app/scale/ranks, and refused for applications that
// cannot run a fleet.
func TestFleetSuiteKey(t *testing.T) {
	eng := NewEngine(1)
	base, ok := eng.FleetSuiteKey("amg", goldenScale, 4)
	if !ok || base == "" {
		t.Fatal("no key for a valid fleet request")
	}
	if again, _ := eng.FleetSuiteKey("amg", goldenScale, 4); again != base {
		t.Fatal("key not deterministic")
	}
	if k, _ := eng.FleetSuiteKey("amg", goldenScale, 2); k == base {
		t.Fatal("ranks did not change the key")
	}
	if k, _ := eng.FleetSuiteKey("amg", goldenScale*2, 4); k == base {
		t.Fatal("scale did not change the key")
	}
	if _, ok := eng.FleetSuiteKey("cumf_als", goldenScale, 4); ok {
		t.Fatal("single-process application fingerprinted")
	}
	if _, ok := eng.FleetSuiteKey("hpl", goldenScale, 4); ok {
		t.Fatal("unknown application fingerprinted")
	}
	if _, ok := eng.FleetSuiteKey("amg", goldenScale, -1); ok {
		t.Fatal("negative ranks fingerprinted")
	}
}

// worldCounter counts whole-world simulations: every world sets rank 0 up
// exactly once.
type worldCounter struct {
	mpi.RankProgram
	n *atomic.Int64
}

func (w worldCounter) Setup(p *proc.Process, rank int) (mpi.RankState, error) {
	if rank == 0 {
		w.n.Add(1)
	}
	return w.RankProgram.Setup(p, rank)
}

// TestFleetRunsOnlyRankWorlds pins the world count of a cached amg launch
// at scale 0.05 over 4 ranks: a miss runs exactly the worlds of its rank
// pipelines, with no separate skew pass, and still carries the skew
// attribution; a repeated launch runs no world and renders the miss's
// bytes; and a byte budget that evicts the rank reports costs re-runs,
// never a different document.
func TestFleetRunsOnlyRankWorlds(t *testing.T) {
	const ranks, scale = 4, 0.05
	spec := apps.Must("amg")
	mcfg := amgFleetConfig(ranks)
	var worlds atomic.Int64
	newProg := func(int) mpi.RankProgram {
		return worldCounter{spec.MPI.Program(scale, apps.Original), &worlds}
	}
	counted := func() int64 { return worlds.Swap(0) }

	// The worlds one rank pipeline runs: the reference run and stages 1-4.
	if _, err := ffm.Run(mpi.App(newProg(0), mcfg, 0), NewEngine(2).config(mcfg.Factory)); err != nil {
		t.Fatal(err)
	}
	perPipeline := counted()

	// The cached launch Fleet makes, over the counting program.
	launch := func(eng *Engine) *ffm.FleetReport {
		t.Helper()
		fp, ok := fingerprint(eng.config(mcfg.Factory))
		if !ok {
			t.Fatal("amg's configuration cannot be fingerprinted")
		}
		keyFor := func(r int) string { return fp.key(FleetRankID("amg", r, ranks), scale, apps.Original) }
		fr, err := eng.fleet(context.Background(), "amg", newProg, mcfg, keyFor)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Partial || fr.Skew == nil {
			t.Fatalf("partial=%v skew=%v, want a complete report with skew", fr.Partial, fr.Skew)
		}
		return fr
	}
	eng := NewEngine(2)
	miss := launch(eng)
	if n := counted(); n != ranks*perPipeline {
		t.Fatalf("a miss ran %d worlds, want %d ranks × %d worlds per pipeline", n, ranks, perPipeline)
	}
	want, err := NewEngine(2).Fleet("amg", scale, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON(t, miss), fleetJSON(t, want)) {
		t.Fatal("the counted launch renders differently from Fleet")
	}

	hit := launch(eng)
	if n := counted(); n != 0 {
		t.Fatalf("a repeated launch ran %d worlds, want 0", n)
	}
	for i := range miss.PerRank {
		miss.PerRank[i].FromCache = true
	}
	wantHit := fleetJSON(t, miss)
	if !bytes.Equal(fleetJSON(t, hit), wantHit) {
		t.Fatal("hit renders differently from the miss beyond FromCache")
	}

	// Every report outweighs this budget, so each launch evicts most of
	// the last one's reports and runs their pipelines again.
	small := NewEngine(2)
	small.Cache.SetByteBudget(1)
	for i := 0; i < 2; i++ {
		fr := launch(small)
		if n := counted(); n < perPipeline {
			t.Fatalf("launch %d under a tiny byte budget ran %d worlds, want at least %d", i, n, perPipeline)
		}
		for r := range fr.PerRank {
			fr.PerRank[r].FromCache = true
		}
		if !bytes.Equal(fleetJSON(t, fr), wantHit) {
			t.Fatalf("launch %d under a tiny byte budget renders differently", i)
		}
	}
	if small.Cache.Evictions() == 0 {
		t.Fatal("the byte budget evicted nothing")
	}
}

// stageFault fails every world after the first one its instance runs. On
// a serial engine a rank pipeline runs its reference world first, so the
// reference run completes and every instrumented stage fails.
type stageFault struct {
	mpi.RankProgram
	worlds int
}

func (f *stageFault) Setup(p *proc.Process, rank int) (mpi.RankState, error) {
	if rank == 0 {
		f.worlds++
	}
	if f.worlds > 1 {
		return nil, errInjected
	}
	return f.RankProgram.Setup(p, rank)
}

// TestFleetSkewNeedsACompletedRank pins where the skew attribution comes
// from: a completed rank pipeline. When every pipeline fails in its
// instrumented stages, the report has no skew, although each rank's
// reference world ran to the end.
func TestFleetSkewNeedsACompletedRank(t *testing.T) {
	spec := apps.Must("amg")
	eng := NewEngine(1)
	eng.FleetBackoff = time.Nanosecond
	var progs []*stageFault
	fr, err := eng.FleetOver("amg", func(int) mpi.RankProgram {
		f := &stageFault{RankProgram: spec.MPI.Program(goldenScale, apps.Original)}
		progs = append(progs, f)
		return f
	}, amgFleetConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Analyzed != 0 || len(fr.FailedRanks) != 2 {
		t.Fatalf("analyzed=%d failed=%v, want every rank failed", fr.Analyzed, fr.FailedRanks)
	}
	for i, f := range progs {
		if f.worlds < 2 {
			t.Fatalf("program %d ran %d worlds, want its reference world and a failing stage", i, f.worlds)
		}
	}
	if fr.Skew != nil {
		t.Fatalf("skew without a completed rank: %+v", fr.Skew)
	}
}

// TestSkewWorldIsReferenceWorld compares the skew reference world with the
// world of every rank's reference run, which observes that rank in an
// op-logging process: on an imbalanced program (non-empty ledger) and on
// amg, both produce the same per-rank skew and barrier ledger.
func TestSkewWorldIsReferenceWorld(t *testing.T) {
	amg, err := apps.ByName("amg")
	if err != nil {
		t.Fatal(err)
	}
	worlds := []struct {
		name string
		prog func() mpi.RankProgram
		mcfg mpi.Config
	}{
		{"skewed-ranks", func() mpi.RankProgram { return &skewedRanks{steps: 4} }, skewedConfig(4)},
		{"amg", func() mpi.RankProgram { return amg.MPI.Program(0.05, apps.Original) }, amgFleetConfig(4)},
	}
	for _, wc := range worlds {
		run := func(observed int, p *proc.Process) ([]mpi.RankSkew, []mpi.BarrierRecord) {
			t.Helper()
			w, err := mpi.NewWorld(wc.prog(), wc.mcfg, observed, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			return w.Skew(), w.Ledger()
		}
		skew, ledger := run(mpi.NoObserved, nil)
		if wc.name == "skewed-ranks" && len(ledger) == 0 {
			t.Fatal("the imbalanced world recorded no skewed barrier")
		}
		for r := 0; r < wc.mcfg.Ranks; r++ {
			gotSkew, gotLedger := run(r, wc.mcfg.Factory.NewMode(proc.OpLog))
			if !reflect.DeepEqual(gotSkew, skew) {
				t.Errorf("%s: rank %d's reference world skew %+v, skew world %+v", wc.name, r, gotSkew, skew)
			}
			if !reflect.DeepEqual(gotLedger, ledger) {
				t.Errorf("%s: rank %d's reference world ledger differs from the skew world's", wc.name, r)
			}
		}
	}
}
