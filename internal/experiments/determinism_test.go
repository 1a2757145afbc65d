package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/proc"
	"diogenes/internal/trace"
)

// updateGolden rewrites the committed golden files from the current serial
// pipeline output: go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite determinism golden files")

// goldenScale keeps the golden files small while running every app shape.
const goldenScale = 0.02

// reportJSON serializes a full report.
func reportJSON(t *testing.T, rep *ffm.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// analysisJSON serializes just the stage-5 analysis (the committed golden
// payload — compact, and covering every benefit number the tool reports).
func analysisJSON(t *testing.T, rep *ffm.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Analysis.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelReportByteIdentical is the headline determinism claim: for
// every modelled application, a generative family member and a replayed
// trace, the parallel engine (stage-2 concurrent with stages 3→4, apps
// fanned out over four workers) produces a Report whose complete JSON
// serialization — baseline, annotated trace, device ops, stage times,
// analysis — is byte-identical to the serial engine's.
func TestParallelReportByteIdentical(t *testing.T) {
	serial := &Engine{Workers: 1}
	parallel := NewEngine(4)
	check := func(t *testing.T, run func(*Engine) (*ffm.Report, error)) {
		t.Helper()
		sRep, err := run(serial)
		if err != nil {
			t.Fatal(err)
		}
		pRep, err := run(parallel)
		if err != nil {
			t.Fatal(err)
		}
		sBytes, pBytes := reportJSON(t, sRep), reportJSON(t, pRep)
		if !bytes.Equal(sBytes, pBytes) {
			t.Fatalf("parallel report differs from serial (serial %d bytes, parallel %d bytes)",
				len(sBytes), len(pBytes))
		}
	}
	for _, spec := range apps.Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			check(t, func(e *Engine) (*ffm.Report, error) { return e.RunApp(spec.Name, goldenScale) })
		})
	}
	t.Run("family/random", func(t *testing.T) {
		check(t, func(e *Engine) (*ffm.Report, error) { return e.RunFamily("random", 7, 40) })
	})
	t.Run("replay/rodinia_gaussian", func(t *testing.T) {
		rep, err := serial.RunApp("rodinia_gaussian", goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		var records bytes.Buffer
		if err := rep.Trace.WriteJSON(&records); err != nil {
			t.Fatal(err)
		}
		check(t, func(e *Engine) (*ffm.Report, error) {
			run, err := trace.ReadJSON(bytes.NewReader(records.Bytes()))
			if err != nil {
				return nil, err
			}
			return e.Replay(run)
		})
	})
}

// TestAnalysisGolden pins every application's serial analysis JSON to a
// committed golden file, so any future change to pipeline determinism —
// a reordered map walk, a nondeterministic group sort — fails loudly here
// rather than surfacing as flaky benefit numbers.
func TestAnalysisGolden(t *testing.T) {
	serial := &Engine{Workers: 1}
	for _, spec := range apps.Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := serial.RunApp(spec.Name, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			got := analysisJSON(t, rep)
			path := filepath.Join("testdata", spec.Name+".analysis.golden.json")
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
				t.Fatalf("analysis diverged from golden %s (got %d bytes, want %d); rerun with -update if the change is intended",
					path, len(got), len(want))
			}
		})
	}
}

// TestParallelTable1MatchesSerial asserts the whole Table 1 — every row,
// every field — is identical between a serial engine and a four-worker
// engine.
func TestParallelTable1MatchesSerial(t *testing.T) {
	serialRows, err := (&Engine{Workers: 1}).Table1(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := NewEngine(4).Table1(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Fatalf("parallel Table 1 differs:\nserial:   %+v\nparallel: %+v", serialRows, parRows)
	}
}

// TestParallelTable2MatchesSerial does the same for a Table 2 section,
// which exercises the profiler comparators alongside the cached pipeline.
func TestParallelTable2MatchesSerial(t *testing.T) {
	names := []string{"rodinia_gaussian", "amg"}
	serial := &Engine{Workers: 1}
	var serialSections [][]Table2Row
	for _, n := range names {
		rows, err := serial.Table2For(n, goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		serialSections = append(serialSections, rows)
	}
	parSections, err := NewEngine(4).Table2(goldenScale, names)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialSections, parSections) {
		t.Fatal("parallel Table 2 differs from serial")
	}
}

// TestEngineCacheDeduplicates proves the content-addressed cache removes
// redundant pipeline executions across suites: table1 followed by table2
// and the autofix comparison re-uses every per-app report and runtime
// instead of re-running them.
func TestEngineCacheDeduplicates(t *testing.T) {
	eng := NewEngine(2)
	if _, err := eng.Table1(goldenScale); err != nil {
		t.Fatal(err)
	}
	_, missesAfterTable1, entries := eng.Cache.Stats()
	if entries == 0 {
		t.Fatal("table1 populated no cache entries")
	}
	if _, err := eng.Table2(goldenScale, []string{"rodinia_gaussian", "amg"}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := eng.Cache.Stats()
	if misses != missesAfterTable1 {
		t.Fatalf("table2 re-ran %d pipelines the cache already held", misses-missesAfterTable1)
	}
	if hits == 0 {
		t.Fatal("table2 after table1 produced no cache hits")
	}
}

// TestRunAppErrors is the table-driven error-path contract for RunApp on
// both the serial and pooled engines.
func TestRunAppErrors(t *testing.T) {
	engines := map[string]*Engine{
		"serial":   {Workers: 1},
		"parallel": NewEngine(3),
	}
	tests := []struct {
		name string
		app  string
	}{
		{"unknown app", "hpl"},
		{"empty name", ""},
		{"case sensitivity", "CUMF_ALS"},
		{"whitespace", " cumf_als"},
	}
	for engName, eng := range engines {
		for _, tt := range tests {
			t.Run(engName+"/"+tt.name, func(t *testing.T) {
				if _, err := eng.RunApp(tt.app, goldenScale); err == nil {
					t.Fatalf("RunApp(%q) accepted", tt.app)
				}
				if _, _, err := eng.ActualReduction(tt.app, goldenScale); err == nil {
					t.Fatalf("ActualReduction(%q) accepted", tt.app)
				}
			})
		}
	}
}

// TestEngineRejectsNegativeWorkers proves pool construction errors
// propagate out of every suite entry point.
func TestEngineRejectsNegativeWorkers(t *testing.T) {
	bad := &Engine{Workers: -3}
	if _, err := bad.Table1(goldenScale); err == nil {
		t.Fatal("Table1 accepted a negative worker count")
	}
	if _, err := bad.Table2(goldenScale, []string{"amg"}); err == nil {
		t.Fatal("Table2 accepted a negative worker count")
	}
	if _, err := bad.AutofixTable(goldenScale, func(string, float64) (*AutofixRow, error) {
		return &AutofixRow{}, nil
	}); err == nil {
		t.Fatal("AutofixTable accepted a negative worker count")
	}
}

// TestCacheKeyProperties pins the key construction rules the cache relies
// on: stability, sensitivity to every tuple element, insensitivity to the
// Workers knob, and refusal to fingerprint Prepare hooks.
func TestCacheKeyProperties(t *testing.T) {
	cfg := ffm.DefaultConfig()
	base, ok := CacheKey("cumf_als", 0.1, apps.Original, cfg)
	if !ok || base == "" {
		t.Fatal("base key not produced")
	}
	if again, _ := CacheKey("cumf_als", 0.1, apps.Original, cfg); again != base {
		t.Fatal("key not deterministic")
	}

	workers := cfg
	workers.Workers = 8
	if k, _ := CacheKey("cumf_als", 0.1, apps.Original, workers); k != base {
		t.Fatal("Workers changed the key; serial and parallel runs must share entries")
	}

	variants := map[string]func() (string, bool){
		"app":     func() (string, bool) { return CacheKey("cuibm", 0.1, apps.Original, cfg) },
		"scale":   func() (string, bool) { return CacheKey("cumf_als", 0.2, apps.Original, cfg) },
		"variant": func() (string, bool) { return CacheKey("cumf_als", 0.1, apps.Fixed, cfg) },
		"config": func() (string, bool) {
			c := cfg
			c.Overheads.Stage3Probe++
			return CacheKey("cumf_als", 0.1, apps.Original, c)
		},
	}
	for name, fn := range variants {
		if k, ok := fn(); !ok || k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	prepared := cfg
	prepared.Factory.Prepare = func(*proc.Process) {}
	if _, ok := CacheKey("cumf_als", 0.1, apps.Original, prepared); ok {
		t.Fatal("a config with a Prepare hook must be uncachable")
	}
}

// TestCacheKeyBytesPinned pins key bytes for the registry apps, a fleet
// rank, the skew world and a fleet suite: persisted store entries and the
// ledger name reports by these keys, so no change to how keys are built
// may move one.
func TestCacheKeyBytesPinned(t *testing.T) {
	keys := []struct {
		app     string
		scale   float64
		variant apps.Variant
		want    string
	}{
		{"cumf_als", 0.05, apps.Original, "4cd57e8bb17fb9403d6bdd7ece8c892d81155e0f84bbf5606c94de62d73035e0"},
		{"cumf_als", 0.05, apps.Fixed, "4c117456d58405ff2f9d40d0dcb96889627ca80ab07c0c82e88c7b5e0d25d7b8"},
		{"cumf_als", 0.25, apps.Original, "92f1c9d0f0d933e4c0d913d11372486497cb205c05538a674a4fff6bab065b77"},
		{"cumf_als", 0.25, apps.Fixed, "a0b27242880a13340934e15841122055b29c96d542a6f33c29f0f3aeb1869f4a"},
		{"cuibm", 0.05, apps.Original, "17fc046e8508653a4b98bb6cf30b0ffcd11716443dbed9abf4ae69db94b8c3b4"},
		{"cuibm", 0.05, apps.Fixed, "7b81aa83f15557c9bae7f0b02b23944484c89cf08bc3db219fc4a853d29ff771"},
		{"cuibm", 0.25, apps.Original, "cefa89cdb54e461b98ce929cf67acc2af5e15893be14c7b3130e65cf91f2cb81"},
		{"cuibm", 0.25, apps.Fixed, "424e6ec7b60bc02e785923f71edd18abe62ff3e9664abae722fd2c6c65dad253"},
		{"amg", 0.05, apps.Original, "7506dd79ecab9cd0c1ca6cb2c36ff732e06c3ea9f187241b0da2caec4f1693c2"},
		{"amg", 0.05, apps.Fixed, "4caf82b2b992426f49c444fc83408f2fa4b416625740bb4d0a829d8740043835"},
		{"amg", 0.25, apps.Original, "46e6911a3dcca0430b39aa352cfad32b12a302e6b863a797860e4e4555058fbe"},
		{"amg", 0.25, apps.Fixed, "9fa3a1c783603c1a1bd6348b0d856a0033824e5ba83c1d0dad1312ca432c9888"},
		{"rodinia_gaussian", 0.05, apps.Original, "d22859b1060bec150e984ce57baf712862b5704369671b851665f2a2bb62422c"},
		{"rodinia_gaussian", 0.05, apps.Fixed, "a2889923a69269c177675e8b85336e355aa779f43ad9c024e7d83a86ca3d86be"},
		{"rodinia_gaussian", 0.25, apps.Original, "2e2a56f3b1475a622875c2ac021b16fbec7f95324473d6683b24c850abccd6de"},
		{"rodinia_gaussian", 0.25, apps.Fixed, "fcdd098014f85b4fba99767f913b185ff48aac4530c500befc2d504eeea46ece"},
		{FleetRankID("amg", 3, 8), 0.25, apps.Original, "89efeb6e9cd9a26ac5e0dd3bb7edc1f379a7dae613304aa2e51024382777aa03"},
	}
	for _, k := range keys {
		f, ok := apps.FactoryFor(k.app)
		if !ok {
			t.Fatalf("no factory for %s", k.app)
		}
		cfg := NewEngine(1).config(f)
		if got, ok := CacheKey(k.app, k.scale, k.variant, cfg); !ok || got != k.want {
			t.Errorf("CacheKey(%s, %v, %v) = %s, want %s", k.app, k.scale, k.variant, got, k.want)
		}
	}
	const suite = "a51579c2528a85f94729e503eeea7f124493686237580b743d61c88846636c1d"
	if got, ok := NewEngine(1).FleetSuiteKey("amg", 0.25, 8); !ok || got != suite {
		t.Errorf("FleetSuiteKey(amg, 0.25, 8) = %s, want %s", got, suite)
	}
}
