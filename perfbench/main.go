// Command perfbench is the repository's benchmark: it runs one named
// workload against the code of the checkout it was built from, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of an untraced run;
// with -trace 1 they are the per-layer metrics of a traced run, together
// with the tracing overhead measured against an untraced phase of the same
// run. See README.md in this directory for the workloads and the metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// engineWorkers is the experiment engine width of the in-process
// workloads and the per-job width inside the served workload.
const engineWorkers = 2

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd and perLayer name every metric in BENCHMARK.json order. Each
// workload reports all of them: a layer a workload does not exercise
// reports 0. miss_ms and hit_ms are the latency percentile the workload
// gates on (workload.percentile).
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"miss_ms", "ms"},
	{"hit_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ Name, Unit string }{
	{"cuda.reference_s", "s"},
	{"memory.alloc_mb", "MB"},
	{"ffm.stage1_s", "s"},
	{"ffm.stage2_s", "s"},
	{"ffm.stage3_s", "s"},
	{"ffm.stage4_s", "s"},
	{"ffm.analyze_s", "s"},
	{"experiments.actual_s", "s"},
	{"interpose.probe_firings", "count"},
	{"interpose.records", "count"},
	{"cuda.syncs", "count"},
	{"hashstore.sha256_computed", "count"},
	{"hashstore.prefilter_hits", "count"},
	{"experiments.cache_hits", "count"},
	{"experiments.cache_misses", "count"},
	{"fleet.rank_p50_s", "s"},
	{"fleet.rank_max_s", "s"},
	{"mpi.world_runs", "count"},
	{"sched.utilization_pct", "%"},
	{"serve.ack_ms", "ms"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.jobqueue_depth_peak", "count"},
	{"serve.exec_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.doc_mb", "MB"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"ledger.appends", "count"},
	{"ledger.seals", "count"},
	{"ledger.seal_ms", "ms"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"serve.hit_share", "ratio"},
	{"trace.miss_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// env is what every workload needs from the command line.
type env struct {
	root    string // checkout root: goldens and sources are read from here
	bin     string // the diogenes CLI built from the checkout
	tmp     string // scratch directory inside the checkout's .bench_build
	seed    int64
	seconds float64
	traced  bool
}

// result is what one workload run measured.
type result struct {
	setup []time.Duration
	miss  []float64 // cache-missing operation latencies, ms
	hit   []float64 // cache-hitting operation latencies, ms
	span  time.Duration
	done  int // operations completed in the measured phase
	ops   tally
	rss   float64 // peak resident memory of the measured program, MB
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// extra is printed for people, never gated.
	extra []metric
}

// checkError is a failed output check: the run reports no numbers.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// infraError is an environment fault (server failed to start, drain timed
// out): the run is INFRA_FLAKE, excluded and rerun, never averaged.
type infraError struct{ err error }

func (e *infraError) Error() string { return "INFRA_FLAKE: " + e.err.Error() }
func (e *infraError) Unwrap() error { return e.err }

// workload is one named set of inputs.
type workload struct {
	name string
	// params is everything that defines the workload's inputs; its hash
	// stamps the cohort.
	params any
	// percentile is the latency percentile miss_ms and hit_ms report.
	percentile int
	run        func(env) (*result, error)
}

// The in-process workloads gate on the 10th percentile. They compute on
// two workers of a host whose cores are shared with other tenants, so a
// neighbour's load stalls one worker at every join and slows the median
// by tens of percent from one minute to the next; the fast tenth, the
// operations that ran with the cores they asked for, moves by a fraction
// of that. serve-mix gates on the median: its fast tenth is the smallest
// documents, whose latency mostly depends on what the other client's job
// happens to be, while its median sits inside one job size's band.
func workloads() []workload {
	return []workload{
		{"table1", table1Params, 10, runTable1},
		{"fleet-amg8", fleetParams, 10, runFleet},
		{"serve-mix", serveParams, 50, runServeMix},
	}
}

// infraAttempts bounds how often an INFRA_FLAKE run is rerun.
const infraAttempts = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: table1, fleet-amg8 or serve-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root    = flag.String("root", ".", "checkout root holding the sources and goldens")
		bin     = flag.String("bin", "", "diogenes CLI built from the checkout")
	)
	flag.Parse()
	tmp := filepath.Join(*root, ".bench_build", "tmp")
	os.Exit(run(*name, env{root: *root, bin: *bin, tmp: tmp, seed: *seed,
		seconds: *seconds, traced: *trace == 1}))
}

func run(name string, e env) int {
	var w *workload
	for _, c := range workloads() {
		if c.name == name {
			c := c
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	if e.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	stamp, err := cohort(w, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cohort: %v\n", err)
		return 1
	}
	fmt.Printf("cohort %s\n", stamp)

	var res *result
	for attempt := 1; ; attempt++ {
		res, err = w.run(e)
		var infra *infraError
		if err == nil || !errors.As(err, &infra) || attempt == infraAttempts {
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %v; run excluded, rerunning (%d/%d)\n", err, attempt+1, infraAttempts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		var check *checkError
		if errors.As(err, &check) {
			printResult(false, tally{Attempted: 1, Failed: 1}, nil)
		}
		return 1
	}
	metrics := printMetrics(res, e.traced, w.percentile)
	printResult(true, res.ops, metrics)
	return 0
}

// printMetrics prints every metric for people and returns the gated ones;
// miss_ms and hit_ms report the pct-th percentile.
func printMetrics(res *result, traced bool, pct int) []metric {
	e2e := map[string]float64{
		"setup_s":     median(durSecs(res.setup)),
		"miss_ms":     percentile(res.miss, pct),
		"hit_ms":      percentile(res.hit, pct),
		"peak_rss_mb": res.rss,
	}
	notes := map[string]string{
		"setup_s": fmt.Sprintf("median of %d set-ups", len(res.setup)),
		"miss_ms": fmt.Sprintf("p%d of %d samples", pct, len(res.miss)),
		"hit_ms":  fmt.Sprintf("p%d of %d samples", pct, len(res.hit)),
	}
	printMetric := func(m metric, note string) {
		fmt.Printf("metric %-28s %14.6f %-6s %s\n", m.Name, m.Value, m.Unit, note)
	}
	var gated []metric
	if !traced {
		for _, d := range endToEnd {
			m := metric{d.Name, d.Unit, e2e[d.Name]}
			printMetric(m, notes[d.Name])
			gated = append(gated, m)
		}
	}
	printMetric(metric{"miss_p50_ms", "ms", median(res.miss)}, "")
	printMetric(metric{"hit_p50_ms", "ms", median(res.hit)}, "")
	printMetric(metric{"ops_per_s", "1/s", float64(res.done) / res.span.Seconds()}, "")
	for _, set := range []struct {
		kind string
		xs   []float64
	}{{"miss", res.miss}, {"hit", res.hit}} {
		kind := set.kind
		if t, ok := chooseTail(set.xs); ok {
			printMetric(metric{kind + "_tail_ms", "ms", t.Value},
				fmt.Sprintf("p%d of %d samples, %d beyond", t.Percentile, t.Samples, t.Beyond))
		} else {
			fmt.Printf("metric %-28s %14s %-6s fewer than %d samples beyond the median (n=%d)\n",
				kind+"_tail_ms", "n/a", "ms", minTailBeyond, t.Samples)
		}
	}
	printMetric(metric{"failed_frac", "ratio", res.ops.failedFrac()},
		fmt.Sprintf("%d of %d attempts (refused %d, 5xx %d, 4xx %d, transport %d, failed %d)",
			res.ops.failures(), res.ops.Attempted, res.ops.Refused, res.ops.ServerErr,
			res.ops.ClientErr, res.ops.Transport, res.ops.Failed))
	for _, m := range res.extra {
		printMetric(m, "")
	}
	if traced {
		for _, d := range perLayer {
			m := metric{d.Name, d.Unit, res.layers[d.Name]}
			printMetric(m, "")
			gated = append(gated, m)
		}
	}
	return gated
}

func durSecs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(correct bool, ops tally, metrics []metric) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, ops.Attempted, ops.failures(), map[string]jsonMetric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only plain numbers and strings: a bug if it fails
	}
	fmt.Println(string(b))
}

// cohort renders the run's stamp. Results whose config hashes differ
// measured different inputs and are never compared.
func cohort(w *workload, e env) (string, error) {
	params, err := json.Marshal(struct {
		Workload      string  `json:"workload"`
		Params        any     `json:"params"`
		Seconds       float64 `json:"seconds"`
		EngineWorkers int     `json:"engineWorkers"`
		Percentile    int     `json:"percentile"`
	}{w.name, w.params, e.seconds, engineWorkers, w.percentile})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(params)
	commit, err := sourceDigest(e.root)
	if err != nil {
		return "", err
	}
	host, _ := os.Hostname() // an unnamed host is still a valid stamp
	b, err := json.Marshal(map[string]any{
		"workload":    w.name,
		"host":        host,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      commit,
		"seed":        e.seed,
		"traced":      e.traced,
		"config_hash": hex.EncodeToString(sum[:8]),
		"config":      json.RawMessage(params),
	})
	return string(b), err
}

// sourceDigest identifies the code under test. A checkout need not be a
// git repository, so the commit is stamped as a digest over the module's
// Go sources and go.mod rather than a revision id.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
