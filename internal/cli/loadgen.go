package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Loadgen drives one or more serve nodes with a mixed interactive/batch
// workload and reports a per-cohort latency and throughput matrix. The
// methodology follows the repo's benchmarking policy: runs execute in
// fixed-duration cohorts, each cohort starts against drained queues and
// passes a validity gate before it may be aggregated, and final (gated)
// claims require at least minValidCohorts valid cohorts. Backpressure
// (HTTP 429) is a counted outcome, not an error — a bounded queue
// turning work away is the serve layer working as designed, and the
// client honours its Retry-After hint; transport failures and 5xx
// responses are what invalidate a cohort.
func Loadgen(w io.Writer, args []string) error {
	fs := newFlagSet("loadgen")
	targets := fs.String("targets", "http://127.0.0.1:8377", "comma-separated serve base URLs (or host:port)")
	clients := fs.Int("clients", 4, "concurrent client loops")
	cohorts := fs.Int("cohorts", minValidCohorts, "fixed-duration measurement cohorts")
	duration := fs.Duration("duration", 2*time.Second, "per-cohort wall time")
	mix := fs.Float64("mix", 0.8, "interactive fraction of submissions (rest are batch fleet jobs)")
	scale := fs.Float64("scale", 0.05, "workload scale submitted with each job")
	seed := fs.Int64("seed", 1, "workload-mix random seed")
	jsonPath := fs.String("json", "", "export the full matrix as JSON to file")
	gate := fs.Bool("gate", false, "enforce the validity gates: nonzero exit unless >= 5 cohorts are valid")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadgen: unexpected argument %q", fs.Arg(0))
	}
	if *clients < 1 {
		return fmt.Errorf("loadgen: need at least 1 client, have %d", *clients)
	}
	if *cohorts < 1 {
		return fmt.Errorf("loadgen: need at least 1 cohort, have %d", *cohorts)
	}
	if *mix < 0 || *mix > 1 {
		return fmt.Errorf("loadgen: -mix %v must be in [0,1]", *mix)
	}
	var urls []string
	for _, tgt := range strings.Split(*targets, ",") {
		tgt = strings.TrimSpace(tgt)
		if tgt == "" {
			continue
		}
		if !strings.HasPrefix(tgt, "http://") && !strings.HasPrefix(tgt, "https://") {
			tgt = "http://" + tgt
		}
		urls = append(urls, strings.TrimRight(tgt, "/"))
	}
	if len(urls) == 0 {
		return fmt.Errorf("loadgen: -targets is empty")
	}

	report := runLoad(urls, *clients, *cohorts, *duration, *mix, *scale, *seed)
	writeLoadReport(w, report)
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}); err != nil {
			return fmt.Errorf("loadgen: -json: %w", err)
		}
		fmt.Fprintf(w, "\nload matrix exported to %s\n", *jsonPath)
	}
	if *gate {
		if err := report.gateErr(); err != nil {
			return &ExitCodeError{Err: err, Code: 3}
		}
		fmt.Fprintf(w, "\nvalidity gates passed: %d/%d cohorts valid (need >= %d)\n",
			report.ValidCohorts, len(report.Cohorts), minValidCohorts)
	}
	return nil
}

// minValidCohorts is the minimum sample size behind any aggregated
// claim the gated loadgen makes (the N>=5 rule).
const minValidCohorts = 5

// loadApps are the interactive submission targets, drawn per request
// from each client's seeded stream.
var loadApps = []string{"rodinia_gaussian", "amg", "cuibm", "cumf_als"}

// loadOutcome classifies one submission.
type loadOutcome int

const (
	outcomeAccepted    loadOutcome = iota // 2xx: queued or store-served
	outcomeBackpressed                    // 429: the bounded queue said later
	outcomeInvalid                        // transport error, 5xx, or anything else
)

// classStats aggregates one admission class within one cohort.
type classStats struct {
	Accepted    int     `json:"accepted"`
	Backpressed int     `json:"backpressed"`
	Invalid     int     `json:"invalid"`
	P50Micros   int64   `json:"p50Micros"`
	P90Micros   int64   `json:"p90Micros"`
	P99Micros   int64   `json:"p99Micros"`
	latencies   []int64 // accepted-submission latencies, µs
}

// CohortReport is one fixed-duration measurement window.
type CohortReport struct {
	Index       int        `json:"index"`
	Seconds     float64    `json:"seconds"`
	Interactive classStats `json:"interactive"`
	Batch       classStats `json:"batch"`
	// Throughput is accepted submissions per second across both classes.
	Throughput float64 `json:"throughput"`
	// Valid reports the cohort's validity gate: no invalid outcomes and
	// at least one accepted submission. Invalid cohorts are excluded
	// from every aggregate.
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

// LoadReport is the full matrix.
type LoadReport struct {
	Targets      []string       `json:"targets"`
	Clients      int            `json:"clients"`
	Mix          float64        `json:"interactiveMix"`
	Cohorts      []CohortReport `json:"cohorts"`
	ValidCohorts int            `json:"validCohorts"`
	// Aggregates over valid cohorts only; zero-valued when none are.
	AggThroughput float64 `json:"aggThroughput"`
	AggP50Micros  int64   `json:"aggP50Micros"`
	AggP99Micros  int64   `json:"aggP99Micros"`
}

// gateErr renders the validity-gate verdict as an error, nil when the
// report is publishable.
func (r *LoadReport) gateErr() error {
	if r.ValidCohorts < minValidCohorts {
		return fmt.Errorf("loadgen: validity gate failed: %d/%d cohorts valid, need >= %d (invalid cohorts must be rerun, not aggregated)",
			r.ValidCohorts, len(r.Cohorts), minValidCohorts)
	}
	return nil
}

// runLoad executes the cohort matrix against the target group.
func runLoad(urls []string, clients, cohorts int, dur time.Duration, mix, scale float64, seed int64) *LoadReport {
	client := &http.Client{Timeout: 30 * time.Second}
	report := &LoadReport{Targets: urls, Clients: clients, Mix: mix}
	for c := 0; c < cohorts; c++ {
		if !drain(client, urls, drainBound) {
			report.Cohorts = append(report.Cohorts, CohortReport{Index: c, Seconds: dur.Seconds(), Reason: reasonDrainTimeout})
			continue
		}
		report.Cohorts = append(report.Cohorts, runCohort(client, urls, clients, c, dur, mix, scale, seed))
	}
	var lat []int64
	var thr float64
	for i := range report.Cohorts {
		co := &report.Cohorts[i]
		if !co.Valid {
			continue
		}
		report.ValidCohorts++
		thr += co.Throughput
		lat = append(lat, co.Interactive.latencies...)
		lat = append(lat, co.Batch.latencies...)
	}
	if report.ValidCohorts > 0 {
		report.AggThroughput = thr / float64(report.ValidCohorts)
		report.AggP50Micros = percentile(lat, 50)
		report.AggP99Micros = percentile(lat, 99)
	}
	return report
}

// drainBound caps the wait for the targets' queues to empty before a
// cohort. Past it the cohort is not run: it is excluded as an infra
// flake rather than measured against the previous cohort's backlog.
const drainBound = 30 * time.Second

// drainPoll is the /healthz polling interval while draining.
const drainPoll = 10 * time.Millisecond

// reasonDrainTimeout marks a cohort excluded because the drain before it
// timed out. INFRA_FLAKE cohorts say nothing about the target's
// behaviour and must be rerun, not counted as a bad result.
const reasonDrainTimeout = "INFRA_FLAKE: drain timeout"

// drain polls every target's /healthz until its queueDepth is 0, so a
// cohort's batch backlog cannot starve the next cohort. It reports false
// when bound passes first. A target whose /healthz cannot be read does
// not hold the drain: the cohort's own submissions then record the
// failure.
func drain(client *http.Client, urls []string, bound time.Duration) bool {
	deadline := time.Now().Add(bound)
	for _, target := range urls {
		for {
			depth, err := queueDepth(client, target)
			if err != nil || depth == 0 {
				break
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(drainPoll)
		}
	}
	return true
}

// queueDepth reads a target's backlog from its /healthz.
func queueDepth(client *http.Client, target string) (int, error) {
	resp, err := client.Get(target + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s/healthz: %s", target, resp.Status)
	}
	var h struct {
		QueueDepth int `json:"queueDepth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.QueueDepth, nil
}

// runCohort runs one fixed-duration window with the full client set.
func runCohort(client *http.Client, urls []string, clients, index int, dur time.Duration, mix, scale float64, seed int64) CohortReport {
	co := CohortReport{Index: index, Seconds: dur.Seconds()}
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Per-client deterministic stream: same seed, same mix.
			rng := rand.New(rand.NewSource(seed + int64(index)*1000 + int64(cl)))
			for i := 0; time.Now().Before(deadline); i++ {
				target := urls[(cl+i)%len(urls)]
				interactive := rng.Float64() < mix
				var body string
				if interactive {
					app := loadApps[rng.Intn(len(loadApps))]
					body = fmt.Sprintf(`{"kind":"run","app":%q,"scale":%g}`, app, scale)
				} else {
					body = fmt.Sprintf(`{"kind":"fleet","app":"amg","ranks":2,"scale":%g}`, scale)
				}
				outcome, micros, retryAfter := submitOnce(client, target, body)
				stats := &co.Batch
				if interactive {
					stats = &co.Interactive
				}
				mu.Lock()
				switch outcome {
				case outcomeAccepted:
					stats.Accepted++
					stats.latencies = append(stats.latencies, micros)
				case outcomeBackpressed:
					stats.Backpressed++
				default:
					stats.Invalid++
				}
				mu.Unlock()
				if outcome == outcomeBackpressed {
					// Back off as the server asked, but never past the
					// end of the cohort.
					time.Sleep(min(retryAfter, time.Until(deadline)))
				}
			}
		}(cl)
	}
	wg.Wait()

	for _, st := range []*classStats{&co.Interactive, &co.Batch} {
		st.P50Micros = percentile(st.latencies, 50)
		st.P90Micros = percentile(st.latencies, 90)
		st.P99Micros = percentile(st.latencies, 99)
	}
	accepted := co.Interactive.Accepted + co.Batch.Accepted
	co.Throughput = float64(accepted) / dur.Seconds()
	invalid := co.Interactive.Invalid + co.Batch.Invalid
	switch {
	case invalid > 0:
		co.Reason = fmt.Sprintf("%d transport/5xx failures", invalid)
	case accepted == 0:
		co.Reason = "no accepted submissions"
	default:
		co.Valid = true
	}
	return co
}

// submitOnce posts one job and classifies the outcome. Latency is the
// submission round trip — what a client waits before it holds a job ID
// (or a store-served result). On a 429 it also returns the server's
// Retry-After hint; a missing or unusable hint reads as one second.
func submitOnce(client *http.Client, target, body string) (loadOutcome, int64, time.Duration) {
	start := time.Now()
	resp, err := client.Post(target+"/jobs", "application/json", strings.NewReader(body))
	micros := time.Since(start).Microseconds()
	if err != nil {
		return outcomeInvalid, micros, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 {
			secs = 1
		}
		return outcomeBackpressed, micros, time.Duration(secs) * time.Second
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return outcomeAccepted, micros, 0
	default:
		return outcomeInvalid, micros, 0
	}
}

// percentile returns the p-th percentile of micros (nearest-rank), 0
// for an empty sample.
func percentile(micros []int64, p int) int64 {
	if len(micros) == 0 {
		return 0
	}
	s := append([]int64(nil), micros...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// writeLoadReport renders the matrix as text.
func writeLoadReport(w io.Writer, r *LoadReport) {
	fmt.Fprintf(w, "loadgen: %d clients, %.0f%% interactive, targets %s\n\n",
		r.Clients, r.Mix*100, strings.Join(r.Targets, " "))
	fmt.Fprintf(w, "%-7s %-8s %-10s %10s %10s %10s %10s %8s\n",
		"cohort", "class", "accepted", "429", "p50(µs)", "p90(µs)", "p99(µs)", "valid")
	for i := range r.Cohorts {
		co := &r.Cohorts[i]
		valid := "yes"
		if !co.Valid {
			valid = "NO: " + co.Reason
		}
		for _, row := range []struct {
			name string
			st   *classStats
		}{{"inter", &co.Interactive}, {"batch", &co.Batch}} {
			fmt.Fprintf(w, "%-7d %-8s %-10d %10d %10d %10d %10d %8s\n",
				co.Index, row.name, row.st.Accepted, row.st.Backpressed,
				row.st.P50Micros, row.st.P90Micros, row.st.P99Micros, valid)
			valid = "" // print the verdict once per cohort
		}
	}
	fmt.Fprintf(w, "\nvalid cohorts: %d/%d", r.ValidCohorts, len(r.Cohorts))
	if r.ValidCohorts > 0 {
		fmt.Fprintf(w, "; aggregate throughput %.1f accepted/s, p50 %dµs, p99 %dµs (valid cohorts only)",
			r.AggThroughput, r.AggP50Micros, r.AggP99Micros)
	}
	fmt.Fprintln(w)
}
