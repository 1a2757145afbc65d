package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"diogenes/internal/apps"
	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/mpi"
	"diogenes/internal/obs"
	"diogenes/internal/proc"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

// hitsPerMiss is how many cache-hitting repeats follow each fresh-engine
// operation. It is fixed, not time-bound, so a traced cycle's counters
// are exact and repeat from run to run. A hit costs a few percent of a
// miss, so the hits add many samples for little of the run's time.
const hitsPerMiss = 16

// inprocSetups is how many times an in-process workload sets up in one
// run; set-up time is reported as their median. A set-up takes a tenth of
// a second or less, so many cost little and steady the median.
const inprocSetups = 15

// The golden files and the scales the repository's tests render them at.
var table1Params = struct {
	Scale       float64 `json:"scale"`
	HitsPerMiss int     `json:"hitsPerMiss"`
	Setups      int     `json:"setups"`
	Golden      string  `json:"golden"`
	GoldenScale float64 `json:"goldenScale"`
}{1.0, hitsPerMiss, inprocSetups, "internal/report/testdata/table1.txt.golden", 0.05}

var fleetParams = struct {
	App         string  `json:"app"`
	Scale       float64 `json:"scale"`
	Ranks       int     `json:"ranks"`
	HitsPerMiss int     `json:"hitsPerMiss"`
	Setups      int     `json:"setups"`
	Golden      string  `json:"golden"`
	GoldenScale float64 `json:"goldenScale"`
	GoldenRanks int     `json:"goldenRanks"`
}{"amg", 0.25, 8, hitsPerMiss, inprocSetups, "internal/experiments/testdata/fleet_amg.golden.json", 0.02, 4}

// inproc is a workload driven through the experiment engine in this
// process: one operation renders one document from a fresh engine (a
// miss) and then hitsPerMiss times from the same, now warm, engine.
type inproc struct {
	// golden runs the operation's code path at golden scale and compares
	// it with the committed golden file.
	golden func(root string) error
	// op runs one operation and returns its rendered bytes.
	op func(eng *experiments.Engine) ([]byte, error)
	// layers runs the traced run's extra stage-by-stage pass. eng is the
	// traced engine of the first traced cycle; want the operation's bytes.
	layers func(eng *experiments.Engine, want []byte, into map[string]float64) error
	// rankSpans reads per-rank span wall times off the traced miss.
	rankSpans bool
	// missName is the workload's own name for its miss median, printed in
	// seconds beside miss_p50_ms.
	missName string
}

func runTable1(e env) (*result, error) {
	scale := table1Params.Scale
	return runInproc(e, inproc{
		golden: func(root string) error {
			out, err := table1Op(experiments.NewEngine(engineWorkers), table1Params.GoldenScale)
			if err != nil {
				return err
			}
			return compareGolden(root, table1Params.Golden, out)
		},
		op: func(eng *experiments.Engine) ([]byte, error) { return table1Op(eng, scale) },
		layers: func(eng *experiments.Engine, _ []byte, into map[string]float64) error {
			return table1Stages(eng, scale, into)
		},
		missName: "suite_s",
	})
}

func table1Op(eng *experiments.Engine, scale float64) ([]byte, error) {
	rows, err := eng.Table1(scale)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.Table1(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runFleet(e env) (*result, error) {
	p := fleetParams
	return runInproc(e, inproc{
		golden: func(root string) error {
			out, err := fleetOp(experiments.NewEngine(engineWorkers), p.GoldenScale, p.GoldenRanks)
			if err != nil {
				return err
			}
			return compareGolden(root, p.Golden, out)
		},
		op: func(eng *experiments.Engine) ([]byte, error) { return fleetOp(eng, p.Scale, p.Ranks) },
		layers: func(_ *experiments.Engine, want []byte, into map[string]float64) error {
			return fleetWorldRuns(p.Scale, p.Ranks, want, into)
		},
		rankSpans: true,
		missName:  "fleet_s",
	})
}

func fleetOp(eng *experiments.Engine, scale float64, ranks int) ([]byte, error) {
	fr, err := eng.Fleet(fleetParams.App, scale, ranks)
	if err != nil {
		return nil, err
	}
	if fr.Partial {
		return nil, checkFailf("fleet launch is partial: failed ranks %v", fr.FailedRanks)
	}
	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func compareGolden(root, rel string, got []byte) error {
	want, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	if !bytes.Equal(got, want) {
		return checkFailf("output at golden scale differs from %s (%d bytes, want %d)", rel, len(got), len(want))
	}
	return nil
}

func runInproc(e env, w inproc) (*result, error) {
	res := &result{layers: map[string]float64{}}
	for i := 0; i < inprocSetups; i++ {
		t0 := time.Now()
		if err := w.golden(e.root); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
	}

	var want, wantHit []byte
	// phase runs whole miss+hits cycles until the deadline, at least one.
	// A traced phase gives every cycle's engine its own observer and
	// returns the first cycle's engine.
	phase := func(seconds float64, traced bool) (miss, hit []float64, done int, span time.Duration, first *experiments.Engine, err error) {
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		for len(miss) == 0 || time.Now().Before(deadline) {
			eng := experiments.NewEngine(engineWorkers)
			if traced {
				eng.SetObserver(obs.New("perfbench"))
			}
			if first == nil {
				first = eng
			}
			for k := 0; k <= hitsPerMiss; k++ {
				if k <= 1 {
					// The miss, and then the run of hits, start from a
					// collected heap with the freed memory returned to the
					// system, as in a fresh CLI process, instead of paying
					// for the garbage of what ran before or sharing the
					// cores with the background scavenger returning it.
					debug.FreeOSMemory()
				}
				t0 := time.Now()
				out, err := w.op(eng)
				took := ms(time.Since(t0))
				var check *checkError
				if errors.As(err, &check) {
					return nil, nil, 0, 0, nil, err
				}
				if err != nil {
					res.ops.add(outcomeFailed)
					fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
					break
				}
				res.ops.add(outcomeOK)
				done++
				// A hit may mark what came from the cache, so misses and
				// hits are each compared with their own first rendering.
				ref := &want
				if k > 0 {
					ref = &wantHit
				}
				if *ref == nil {
					*ref = out
				} else if !bytes.Equal(out, *ref) {
					return nil, nil, 0, 0, nil, checkFailf("repeat rendered %d bytes differing from the first %d", len(out), len(*ref))
				}
				if k > 0 {
					hit = append(hit, took)
					continue
				}
				miss = append(miss, took)
				if traced && eng == first {
					// Layer counters and rank spans of exactly one miss.
					obsLayers(eng.Obs, w.rankSpans, res.layers)
				}
			}
		}
		return miss, hit, done, time.Since(start), first, nil
	}

	var err error
	if !e.traced {
		res.miss, res.hit, res.done, res.span, _, err = phase(e.seconds, false)
		if err != nil {
			return nil, err
		}
	} else {
		// Untraced half first, then the traced half; the difference in
		// miss medians is the tracing overhead.
		res.miss, res.hit, res.done, res.span, _, err = phase(e.seconds/2, false)
		if err != nil {
			return nil, err
		}
		tmiss, _, _, _, first, err := phase(e.seconds/2, true)
		if err != nil {
			return nil, err
		}
		res.layers["trace.miss_p50_ms"] = median(tmiss)
		res.layers["trace.overhead_pct"] = 100 * (median(tmiss)/median(res.miss) - 1)
		// Cache counters of the first cycle (one miss and its hits), read
		// before the stage pass looks the cached reports up again.
		snap := first.Obs.Metrics().Snapshot()
		res.layers["experiments.cache_hits"] = float64(snap.Counters["cache/hits"])
		res.layers["experiments.cache_misses"] = float64(snap.Counters["cache/misses"])
		if err := w.layers(first, want, res.layers); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	res.rss = rss
	res.extra = append(res.extra, metric{w.missName, "s", median(res.miss) / 1000})
	return res, nil
}

// obsLayers reads the counters the modules registered during one traced
// miss, the pool utilization of its last fan-out, and, with rankSpans,
// the wall time of each rank's pipeline span of a fleet launch.
func obsLayers(o *obs.Observer, rankSpans bool, into map[string]float64) {
	snap := o.Metrics().Snapshot()
	for name, counter := range map[string]string{
		"interpose.probe_firings":   "interpose/probe_firings",
		"interpose.records":         "interpose/records",
		"cuda.syncs":                "cuda/syncs",
		"hashstore.sha256_computed": "hashstore/sha256_computed",
		"hashstore.prefilter_hits":  "hashstore/prefilter_hits",
	} {
		into[name] = float64(snap.Counters[counter])
	}
	into["sched.utilization_pct"] = snap.Gauges["sched/utilization_pct"]

	if !rankSpans {
		return
	}
	var rankWalls []float64
	for _, sp := range o.Trace().Root().Children() {
		if strings.Contains(sp.Name(), "@rank") {
			rankWalls = append(rankWalls, sp.Wall().Seconds())
		}
	}
	if len(rankWalls) > 0 {
		sort.Float64s(rankWalls)
		into["fleet.rank_p50_s"] = median(rankWalls)
		into["fleet.rank_max_s"] = rankWalls[len(rankWalls)-1]
	}
}

// table1Stages drives each application's pipeline stage by stage through
// the ffm entry points, timing every call, and checks that the stage-5
// analysis is byte-identical to what ffm.Run produced for the same app
// inside eng's suite — so the traced pass measures the same program.
func table1Stages(eng *experiments.Engine, scale float64, into map[string]float64) error {
	var ref, s1, s2, s3, s4, analyze, actual time.Duration
	var alloc uint64
	timed := func(acc *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		*acc += time.Since(t0)
		return err
	}
	for _, spec := range apps.Registry() {
		app := spec.New(scale, apps.Original)
		factory := spec.Factory()
		ov := ffm.DefaultOverheads()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := timed(&ref, func() error { return proc.SafeRun(app, factory.New()) }); err != nil {
			return fmt.Errorf("%s reference run: %w", spec.Name, err)
		}
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc

		var (
			base                     *ffm.BaselineResult
			detailed, memory, synced *trace.Run
			analysis                 *ffm.Analysis
		)
		if err := timed(&s1, func() (err error) { base, err = ffm.RunBaseline(app, factory, ov); return }); err != nil {
			return err
		}
		if err := timed(&s2, func() (err error) { detailed, err = ffm.RunDetailedTracing(app, factory, base, ov); return }); err != nil {
			return err
		}
		if err := timed(&s3, func() (err error) { memory, err = ffm.RunMemoryTracing(app, factory, base, ov); return }); err != nil {
			return err
		}
		if err := timed(&s4, func() (err error) { synced, _, err = ffm.RunSyncUse(app, factory, base, memory, ov); return }); err != nil {
			return err
		}
		t0 := time.Now()
		ffm.MatchStage2Timing(synced, detailed)
		analysis = ffm.Analyze(synced, ffm.DefaultAnalysisOptions())
		analyze += time.Since(t0)

		rep, err := eng.RunApp(spec.Name, scale)
		if err != nil {
			return err
		}
		var got, want bytes.Buffer
		if err := analysis.WriteJSON(&got); err != nil {
			return err
		}
		if err := rep.Analysis.WriteJSON(&want); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return checkFailf("%s: stage-by-stage analysis differs from ffm.Run (%d vs %d bytes)", spec.Name, got.Len(), want.Len())
		}

		serial := &experiments.Engine{Workers: 1}
		if err := timed(&actual, func() error { _, _, err := serial.ActualReduction(spec.Name, scale); return err }); err != nil {
			return err
		}
	}
	into["cuda.reference_s"] = ref.Seconds()
	into["memory.alloc_mb"] = float64(alloc) / (1 << 20)
	into["ffm.stage1_s"] = s1.Seconds()
	into["ffm.stage2_s"] = s2.Seconds()
	into["ffm.stage3_s"] = s3.Seconds()
	into["ffm.stage4_s"] = s4.Seconds()
	into["ffm.analyze_s"] = analyze.Seconds()
	into["experiments.actual_s"] = actual.Seconds()
	return nil
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

// fleetWorldRuns launches the fleet once more through FleetOver with a
// counting rank program, and checks that the launch is byte-identical to
// the measured one.
func fleetWorldRuns(scale float64, ranks int, want []byte, into map[string]float64) error {
	spec, err := apps.ByName(fleetParams.App)
	if err != nil {
		return err
	}
	var worlds atomic.Int64
	mcfg := mpi.Config{Ranks: ranks, BarrierLatency: spec.MPI.BarrierLatency, Factory: spec.Factory()}
	fr, err := experiments.NewEngine(engineWorkers).FleetOver(spec.Name,
		func(int) mpi.RankProgram {
			return worldCounter{spec.MPI.Program(scale, apps.Original), &worlds}
		}, mcfg)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := fr.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return checkFailf("counted fleet launch differs from the measured one (%d vs %d bytes)", got.Len(), len(want))
	}
	into["mpi.world_runs"] = float64(worlds.Load())
	return nil
}
