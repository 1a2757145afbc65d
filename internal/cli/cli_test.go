package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"diogenes/internal/obs"
)

func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := Main(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestMainNoArgs(t *testing.T) {
	code, _, errOut := runMain(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "commands:") {
		t.Fatal("usage not printed")
	}
}

func TestMainUnknownCommand(t *testing.T) {
	code, _, errOut := runMain(t, "frobnicate")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, `unknown command "frobnicate"`) {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestMainHelp(t *testing.T) {
	code, _, errOut := runMain(t, "help")
	if code != 0 || !strings.Contains(errOut, "autofix") {
		t.Fatalf("help failed: code=%d", code)
	}
}

func TestList(t *testing.T) {
	code, out, _ := runMain(t, "list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, name := range []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"} {
		if !strings.Contains(out, name) {
			t.Errorf("list missing %s", name)
		}
	}
}

func TestDiscover(t *testing.T) {
	code, out, _ := runMain(t, "discover")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "__nv_sync_wait_internal") {
		t.Fatalf("funnel not identified:\n%s", out)
	}
}

func TestRunCommandFullOutput(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "a.json")
	tracePath := filepath.Join(dir, "t.json")
	recordsPath := filepath.Join(dir, "r.json")
	tlPath := filepath.Join(dir, "tl.json")
	code, out, errOut := runMain(t, "-trace", tracePath, "run", "rodinia_gaussian",
		"-scale", "0.02", "-sub", "1:1",
		"-json", jsonPath, "-records", recordsPath, "-timeline", tlPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{
		"Diogenes Overview Display",
		"Diogenes Estimated Savings",
		"Time Recoverable:",
		"Time Recoverable In Subsequence:",
		"Expansion of Problem",
		"Data collection cost",
		"analysis exported to",
		"pipeline span trace exported to",
		"annotated trace exported to",
		"chrome://tracing timeline exported to",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q", want)
		}
	}
	for _, p := range []string{jsonPath, tracePath, recordsPath, tlPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("export %s missing or empty", p)
		}
	}
	// The -trace export is a Chrome trace_event file with one span per
	// pipeline stage.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cf, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{
		"reference", "stage1-baseline", "stage2-detailed-tracing",
		"stage3-memory-tracing", "stage4-sync-use", "stage5-analysis",
	} {
		if len(cf.EventsNamed(stage)) == 0 {
			t.Errorf("span trace missing stage %q", stage)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if code, _, _ := runMain(t, "run"); code != 1 {
		t.Fatal("missing app name accepted")
	}
	if code, _, _ := runMain(t, "run", "nope", "-scale", "0.02"); code != 1 {
		t.Fatal("unknown app accepted")
	}
	if code, _, _ := runMain(t, "run", "rodinia_gaussian", "-scale", "0.02", "-sub", "xx"); code != 1 {
		t.Fatal("malformed -sub accepted")
	}
}

func TestAnalyzeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recordsPath := filepath.Join(dir, "r.json")
	if code, _, errOut := runMain(t, "run", "rodinia_gaussian", "-scale", "0.02", "-records", recordsPath); code != 0 {
		t.Fatalf("run failed: %s", errOut)
	}
	code, out, errOut := runMain(t, "analyze", recordsPath)
	if code != 0 {
		t.Fatalf("analyze failed: %s", errOut)
	}
	if !strings.Contains(out, "Fold on cudaThreadSynchronize") {
		t.Fatalf("analyze output missing findings:\n%s", out)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if code, _, _ := runMain(t, "analyze"); code != 1 {
		t.Fatal("missing path accepted")
	}
	if code, _, _ := runMain(t, "analyze", "/nonexistent/file.json"); code != 1 {
		t.Fatal("missing file accepted")
	}
}

func TestFleetCommand(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fleet.json")
	code, out, errOut := runMain(t, "fleet", "amg", "-ranks", "2", "-scale", "0.02", "-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	for _, want := range []string{
		"Diogenes Fleet Analysis — amg (2 ranks)",
		"Per-rank pipelines",
		"Cross-rank duplicate transfers",
		"Problems across ranks",
		"Collective skew attribution",
		"fleet report exported to",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q", want)
		}
	}
	if strings.Contains(out, "DEGRADED") {
		t.Error("healthy fleet run rendered a DEGRADED section")
	}
	if fi, err := os.Stat(jsonPath); err != nil || fi.Size() == 0 {
		t.Errorf("fleet JSON export missing or empty")
	}
}

func TestFleetErrors(t *testing.T) {
	if code, _, _ := runMain(t, "fleet"); code != 1 {
		t.Fatal("missing app name accepted")
	}
	if code, _, _ := runMain(t, "fleet", "nope", "-scale", "0.02"); code != 1 {
		t.Fatal("unknown app accepted")
	}
	// Single-process applications have no world to fan over.
	if code, _, errOut := runMain(t, "fleet", "cumf_als", "-scale", "0.02"); code != 1 ||
		!strings.Contains(errOut, "single-process") {
		t.Fatalf("single-process app accepted (stderr %q)", errOut)
	}
}

func TestTable1Command(t *testing.T) {
	code, out, errOut := runMain(t, "table1", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	for _, want := range []string{"Application", "cumf_als", "rodinia_gaussian", "(paper)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestTable2Command(t *testing.T) {
	code, out, errOut := runMain(t, "table2", "-scale", "0.02", "rodinia_gaussian")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "cudaThreadSynchronize") || !strings.Contains(out, "NVProf Profiled") {
		t.Fatalf("table2 output:\n%s", out)
	}
}

func TestOverheadCommand(t *testing.T) {
	code, out, errOut := runMain(t, "overhead", "rodinia_gaussian", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "total collection:") {
		t.Fatalf("overhead output:\n%s", out)
	}
	if code, _, _ := runMain(t, "overhead"); code != 1 {
		t.Fatal("missing app accepted")
	}
}

func TestAutofixCommand(t *testing.T) {
	code, out, errOut := runMain(t, "autofix", "rodinia_gaussian", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	for _, want := range []string{"Automatic correction plan", "realized:", "calls elided:"} {
		if !strings.Contains(out, want) {
			t.Errorf("autofix output missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := runMain(t, "autofix"); code != 1 {
		t.Fatal("missing app accepted")
	}
}

// TestAutofixPatchesEveryRank checks that autofix on an MPI application
// realizes what verify's automatic fix does for it: the plan must reach
// every rank's process, or the unpatched ranks drag each collective and
// erase the benefit.
func TestAutofixPatchesEveryRank(t *testing.T) {
	code, out, errOut := runMain(t, "autofix", "amg", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("autofix: exit = %d: %s", code, errOut)
	}
	m := regexp.MustCompile(`realized:\s+(\d+\.\d+s) \((\d+\.\d+)%`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("autofix output has no realized line:\n%s", out)
	}
	code, out, errOut = runMain(t, "verify", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("verify: exit = %d: %s", code, errOut)
	}
	v := regexp.MustCompile(`(?m)^amg .*%\)\s+(\d+\.\d+s) \(\s*(\d+\.\d+)%`).FindStringSubmatch(out)
	if v == nil {
		t.Fatalf("verify output has no amg row:\n%s", out)
	}
	if m[1] != v[1] || m[2] != v[2] {
		t.Fatalf("autofix amg realized %s (%s%%), verify's automatic fix %s (%s%%)", m[1], m[2], v[1], v[2])
	}
}

// TestRandomCommand drives the random workload family through run, the one
// workload entry point; the retired standalone command is unknown.
func TestRandomCommand(t *testing.T) {
	if code, _, errOut := runMain(t, "random", "-seed", "7"); code != 2 || !strings.Contains(errOut, `unknown command "random"`) {
		t.Fatalf("random: exit = %d, stderr = %q; want the unknown-command error", code, errOut)
	}
	code, out, errOut := runMain(t, "run", "-family", "random", "-seed", "7", "-steps", "40")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Diogenes Estimated Savings — random-7") {
		t.Fatalf("random output:\n%s", out)
	}
	if !strings.Contains(out, "CPU/GPU overlap") {
		t.Fatal("overlap summary missing")
	}
}

func TestMarkdownExport(t *testing.T) {
	dir := t.TempDir()
	mdPath := filepath.Join(dir, "report.md")
	code, out, errOut := runMain(t, "run", "rodinia_gaussian", "-scale", "0.02", "-md", mdPath)
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "Markdown report exported to") {
		t.Fatal("export confirmation missing")
	}
	data, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	md := string(data)
	for _, want := range []string{
		"# Diogenes findings — rodinia_gaussian",
		"## Findings by API function",
		"`cudaThreadSynchronize`",
		"## Top problem sequence",
		"## Data collection cost",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestVerifyCommand(t *testing.T) {
	code, out, errOut := runMain(t, "verify", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	for _, want := range []string{"Manual fix", "Automatic fix", "cumf_als", "amg", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("verify output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REJECTED") {
		t.Error("a fix was rejected on the clean workloads")
	}
}

func TestParallelFlagOutputMatchesSerial(t *testing.T) {
	serialCode, serialOut, _ := runMain(t, "table1", "-scale", "0.02")
	if serialCode != 0 {
		t.Fatalf("serial table1 exit = %d", serialCode)
	}
	parCode, parOut, _ := runMain(t, "-parallel", "4", "table1", "-scale", "0.02")
	if parCode != 0 {
		t.Fatalf("parallel table1 exit = %d", parCode)
	}
	if serialOut != parOut {
		t.Fatalf("-parallel 4 changed table1 output:\nserial:\n%s\nparallel:\n%s", serialOut, parOut)
	}
}

func TestParallelFlagTable2MatchesSerial(t *testing.T) {
	_, serialOut, _ := runMain(t, "table2", "-scale", "0.02", "amg")
	code, parOut, _ := runMain(t, "-parallel", "2", "table2", "-scale", "0.02", "amg")
	if code != 0 {
		t.Fatalf("parallel table2 exit = %d", code)
	}
	if serialOut != parOut {
		t.Fatal("-parallel 2 changed table2 output")
	}
}

func TestParallelFlagRejectsNegative(t *testing.T) {
	code, _, errOut := runMain(t, "-parallel", "-3", "table1", "-scale", "0.02")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "parallel") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestParallelFlagUnparseable(t *testing.T) {
	code, _, _ := runMain(t, "-parallel", "lots", "table1")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUsageMentionsParallel(t *testing.T) {
	_, _, errOut := runMain(t, "help")
	for _, flag := range []string{"-parallel", "-trace", "-metrics", "-cpuprofile", "-memprofile"} {
		if !strings.Contains(errOut, flag) {
			t.Errorf("usage does not document %s", flag)
		}
	}
}

// TestRemovedInputsRejected pins the one-name-per-input surface: the
// self-measurement export is only the global -trace/-metrics pair, and
// positional inputs have no flag aliases.
func TestRemovedInputsRejected(t *testing.T) {
	if code, _, errOut := runMain(t, "obs"); code != 2 || !strings.Contains(errOut, `unknown command "obs"`) {
		t.Fatalf("obs: exit %d, stderr %q", code, errOut)
	}
	for _, args := range [][]string{
		{"run", "rodinia_gaussian", "-trace", "t.json"},
		{"fleet", "-app", "amg"},
		{"replay", "-trace", "r.json"},
		{"timeline", "-in", "d.json"},
	} {
		code, _, errOut := runMain(t, args...)
		if code != 1 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
}

func TestGlobalTraceAndMetricsFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	code, out, errOut := runMain(t,
		"-trace", tracePath, "-metrics", metricsPath,
		"table1", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	if !strings.Contains(out, "pipeline span trace exported to") ||
		!strings.Contains(out, "self-measurement metrics exported to") {
		t.Fatalf("export confirmations missing:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cf, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.TraceEvents) == 0 {
		t.Fatal("global -trace produced an empty trace")
	}
	// table1 runs every app; each pipeline contributes a stage-1 span.
	if len(cf.EventsNamed("stage1-baseline")) < 4 {
		t.Fatalf("expected one stage1 span per app, got %d", len(cf.EventsNamed("stage1-baseline")))
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== pipeline spans ==", "== metrics ==",
		"interpose/probe_firings", "cuda/syncs", "cache/misses", "sched/task_wall_ns",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("-metrics output missing %q", want)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	code, _, errOut := runMain(t,
		"-cpuprofile", cpuPath, "-memprofile", memPath,
		"run", "rodinia_gaussian", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d: %s", code, errOut)
	}
	for _, p := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty", p)
		}
	}
	if code, _, _ := runMain(t, "-cpuprofile", filepath.Join(dir, "no", "such", "dir", "p"), "list"); code != 1 {
		t.Fatal("uncreatable cpuprofile path accepted")
	}
}
