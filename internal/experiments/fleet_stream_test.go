package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// skewedConfig is the explicit launch config for the skewedRanks program
// used by the at-scale determinism tests — cheap per rank, cross-rank
// duplicate-free, but exercising the full fold/merge/skew machinery.
func skewedConfig(ranks int) mpi.Config {
	return mpi.Config{
		Ranks:          ranks,
		BarrierLatency: 25 * simtime.Microsecond,
		Factory:        proc.DefaultFactory(),
	}
}

// streamGolden asserts every engine width produces byte-identical fleet
// documents at the given world size, each width cutting the ranks into
// its own batches, and checks them against a committed golden file.
func streamGolden(t *testing.T, ranks int, goldenName string, widths []int) {
	t.Helper()
	var want []byte
	for _, w := range widths {
		eng := NewEngine(w)
		newProg := func(int) mpi.RankProgram { return &skewedRanks{steps: 1} }
		fr, err := eng.FleetOver("skewed-ranks", newProg, skewedConfig(ranks))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := fleetJSON(t, fr)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: fleet report differs (%d vs %d bytes)", w, len(got), len(want))
		}
		batch := fleetBatchSize(ranks, w)
		wantMerges := (ranks+batch-1)/batch - 1
		p, ok := eng.FleetProgress()
		if !ok || p.RanksDone != ranks || p.RanksTotal != ranks || p.Merges != wantMerges {
			t.Fatalf("workers=%d batch=%d: progress %+v ok=%v, want %d/%d ranks and %d merges",
				w, batch, p, ok, ranks, ranks, wantMerges)
		}
	}

	path := filepath.Join("testdata", goldenName)
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

// TestFleetStreamDeterministic64 is the width-invariance claim at 64
// ranks: widths 1, 3, 4 and 8 cut the world into batches of 16, 5, 4 and
// 2 ranks — width 3 leaves a ragged last batch — and all produce the same
// bytes.
func TestFleetStreamDeterministic64(t *testing.T) {
	streamGolden(t, 64, "fleet_stream64.golden.json", []int{1, 3, 4, 8})
}

// TestFleetStreamDeterministic256 repeats the claim at 256 ranks, where
// width 3's batches of 21 again leave a ragged last batch.
func TestFleetStreamDeterministic256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank world simulation in -short mode")
	}
	streamGolden(t, 256, "fleet_stream256.golden.json", []int{1, 3, 8})
}

// TestFleetStreamFaultMidTree injects a failure into a rank in the middle
// of the reduction tree and asserts the degraded report is byte-identical
// at every parallelism degree: a failed leaf must not perturb the merge
// order or the surviving aggregates, and the failed rank's error text must
// not depend on whether its stages ran serially or overlapped.
func TestFleetStreamFaultMidTree(t *testing.T) {
	const ranks, bad = 64, 31
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		eng := NewEngine(workers)
		eng.FleetBackoff = time.Nanosecond
		newProg := func(observed int) mpi.RankProgram {
			prog := mpi.RankProgram(&skewedRanks{steps: 1})
			if observed == bad {
				return &faultyProg{RankProgram: prog, failRank: bad, panics: true}
			}
			return prog
		}
		fr, err := eng.FleetOver("skewed-ranks", newProg, skewedConfig(ranks))
		if err != nil {
			t.Fatalf("workers=%d: injected fault failed the launch: %v", workers, err)
		}
		if !fr.Partial || len(fr.FailedRanks) != 1 || fr.FailedRanks[0] != bad {
			t.Fatalf("workers=%d: partial=%v failed=%v, want partial naming rank %d",
				workers, fr.Partial, fr.FailedRanks, bad)
		}
		if fr.Analyzed != ranks-1 {
			t.Fatalf("workers=%d: analyzed=%d, want %d", workers, fr.Analyzed, ranks-1)
		}
		got := fleetJSON(t, fr)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: degraded fleet report not deterministic", workers)
		}
	}
}

// TestFleetCancelSkipsBackoff is the draining-job guarantee: a canceled
// fleet does not hold a pool worker through the retry backoff. With a
// 30-second backoff and a context canceled mid-run, the launch must
// return promptly with a cancellation error.
func TestFleetCancelSkipsBackoff(t *testing.T) {
	spec := apps.Must("amg")
	eng := NewEngine(2)
	eng.FleetBackoff = 30 * time.Second
	newProg := func(observed int) mpi.RankProgram {
		prog := spec.MPI.Program(goldenScale, apps.Original)
		if observed == 0 {
			return &faultyProg{RankProgram: prog, failRank: 0}
		}
		return prog
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := eng.fleet(ctx, "amg", newProg, amgFleetConfig(2), nil)
	if err == nil {
		t.Fatal("canceled fleet returned a report")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled fleet held its worker %v — backoff not context-aware", elapsed)
	}
}

// TestFleetReduceSynthetic drives the public reduction entry point over
// fabricated outcomes — the benchmark path — and cross-checks it against
// AssembleFleet over one leaf per rank.
func TestFleetReduceSynthetic(t *testing.T) {
	const ranks = 128
	gen := func(rank int) ffm.RankOutcome {
		return ffm.RankOutcome{Rank: rank, Err: fmt.Sprintf("r%d", rank), Attempts: 2, Retried: true}
	}
	eng := NewEngine(8)
	fr, err := eng.FleetReduce("synthetic", ranks, gen)
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]*ffm.FleetPartial, ranks)
	for r := range leaves {
		leaves[r] = ffm.FoldRankOutcome(gen(r))
	}
	want, err := ffm.AssembleFleet("synthetic", ranks, leaves, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON(t, fr), fleetJSON(t, want)) {
		t.Fatal("FleetReduce differs from AssembleFleet over per-rank leaves")
	}
	if len(fr.FailedRanks) != ranks {
		t.Fatalf("failed ranks = %d, want %d", len(fr.FailedRanks), ranks)
	}
}

// TestReportHitPerCallAttribution pins the FromCache fix: the hit flag is
// decided per call at entry lookup, so under heavy concurrency exactly
// one caller per key observes a miss — a Stats()-delta heuristic could
// attribute a neighbor's hit to a missing caller.
func TestReportHitPerCallAttribution(t *testing.T) {
	c := NewReportCache()
	const keys, callers = 4, 8
	var wg sync.WaitGroup
	var misses atomic.Int64
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, hit, err := c.ReportHit(key, func() (*ffm.Report, error) {
					return &ffm.Report{App: key}, nil
				})
				if err != nil {
					t.Error(err)
				}
				if !hit {
					misses.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	if misses.Load() != keys {
		t.Fatalf("got %d misses across %d keys, want exactly one per key", misses.Load(), keys)
	}
}
