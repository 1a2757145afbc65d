package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// postJob submits a request document and returns the HTTP status, the
// decoded view (on 2xx) and the raw response.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, View, *http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v View
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode job view: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, v, resp, raw
}

// getStatus fetches one job view.
func getStatus(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState follows the job's event stream to its terminal frame and
// returns that view.
func waitState(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	frames, _ := readSSE(t, ts.URL+"/jobs/"+id+"/events", nil)
	if len(frames) == 0 || frames[len(frames)-1].Event != "done" {
		t.Fatalf("job %s never finished", id)
	}
	return frames[len(frames)-1].View
}

// getReport fetches a completed job's report in the given format.
func getReport(t *testing.T, ts *httptest.Server, id, format string) []byte {
	t.Helper()
	url := ts.URL + "/jobs/" + id + "/report"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET report %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestBackpressureAndNoDroppedJobs is the acceptance scenario: N
// concurrent submissions against a queue with capacity < N yield some
// 429s carrying Retry-After, and every accepted job completes.
func TestBackpressureAndNoDroppedJobs(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan string, 16)
	s.hookRunning = func(j *Job) {
		entered <- j.ID
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker so the backlog (capacity 1) is the only
	// open slot.
	code, first, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.02}`)
	if code != 202 {
		t.Fatalf("first submit: status %d", code)
	}
	<-entered

	// 8 concurrent submissions into 1 backlog slot: exactly 1 accepted,
	// 7 rejected with 429 + Retry-After.
	const n = 8
	type outcome struct {
		code       int
		id         string
		retryAfter string
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"run","app":"rodinia_gaussian","scale":%g}`, 0.02+0.001*float64(i+1))
			code, v, resp, _ := postJob(t, ts, body)
			results[i] = outcome{code: code, id: v.ID, retryAfter: resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var accepted []string
	rejected := 0
	for _, r := range results {
		switch r.code {
		case 202:
			accepted = append(accepted, r.id)
		case 429:
			rejected++
			if r.retryAfter == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", r.code)
		}
	}
	if len(accepted) != 1 || rejected != 7 {
		t.Fatalf("accepted %d, rejected %d; want 1 and 7", len(accepted), rejected)
	}
	if got := s.obs.Metrics().Counter("serve/jobs_rejected").Value(); got != 7 {
		t.Fatalf("serve/jobs_rejected = %d, want 7", got)
	}

	// Release the workers: every accepted job must reach done — zero
	// dropped accepted jobs.
	close(release)
	for _, id := range append([]string{first.ID}, accepted...) {
		if v := waitState(t, ts, id); v.Status != StateDone {
			t.Fatalf("accepted job %s finished as %s (%s)", id, v.Status, v.Error)
		}
	}
	// Rejected jobs left no trace in the registry.
	if got := s.obs.Metrics().Counter("sched/jobqueue_rejected").Value(); got != 7 {
		t.Fatalf("sched/jobqueue_rejected = %d, want 7", got)
	}
}

// TestStoreHitSkipsPipeline is the acceptance scenario: a repeated
// identical request is served from the disk store — the hit counter
// increments and the job records no pipeline spans.
func TestStoreHitSkipsPipeline(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`
	code, v1, _, _ := postJob(t, ts, body)
	if code != 202 {
		t.Fatalf("first submit: status %d", code)
	}
	done1 := waitState(t, ts, v1.ID)
	if done1.Status != StateDone || done1.FromStore {
		t.Fatalf("first job: %+v", done1)
	}
	if done1.SpansTotal == 0 {
		t.Fatal("first (computed) job recorded no spans")
	}
	if hits := s.obs.Metrics().Counter("store/hits").Value(); hits != 0 {
		t.Fatalf("store/hits = %d before repeat", hits)
	}

	code, v2, _, _ := postJob(t, ts, body)
	if code != 200 {
		t.Fatalf("repeat submit: status %d, want 200 (served from store)", code)
	}
	if !v2.FromStore || v2.Status != StateDone {
		t.Fatalf("repeat job not served from store: %+v", v2)
	}
	if v2.SpansTotal != 0 {
		t.Fatalf("store-served job recorded %d pipeline spans; a hit means no run happened", v2.SpansTotal)
	}
	if hits := s.obs.Metrics().Counter("store/hits").Value(); hits != 1 {
		t.Fatalf("store/hits = %d, want 1", hits)
	}

	// Same document either way, in both formats.
	if !bytes.Equal(getReport(t, ts, v1.ID, "json"), getReport(t, ts, v2.ID, "json")) {
		t.Fatal("stored JSON report differs from computed one")
	}
	if !bytes.Equal(getReport(t, ts, v1.ID, "text"), getReport(t, ts, v2.ID, "text")) {
		t.Fatal("stored text report differs from computed one")
	}
	// fresh=true forces a re-run despite the stored document.
	code, v3, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.05,"fresh":true}`)
	if code != 202 {
		t.Fatalf("fresh submit: status %d", code)
	}
	if v := waitState(t, ts, v3.ID); v.FromStore || v.SpansTotal == 0 {
		t.Fatalf("fresh run was served from store: %+v", v)
	}
}

// TestShutdownDrainsInFlightJob is the acceptance scenario: shutdown
// during an in-flight job drains it and persists its report, while new
// submissions are refused.
func TestShutdownDrainsInFlightJob(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.hookRunning = func(*Job) {
		entered <- struct{}{}
		<-release
	}

	j, err := s.Submit(Request{Kind: KindRun, App: "rodinia_gaussian", Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // in flight

	stopping := make(chan struct{})
	s.hookShutdown = func() { close(stopping) }
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// The server must refuse new work as soon as shutdown begins.
	<-stopping
	if _, err := s.Submit(Request{Kind: KindRun, App: "cuibm", Scale: 0.02}); err != ErrShuttingDown {
		t.Fatalf("submission during shutdown: err = %v, want ErrShuttingDown", err)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("in-flight job drained as %s, want done", st)
	}
	if j.Result() == nil {
		t.Fatal("drained job has no result")
	}
	if _, err := s.store.Get(j.storeKey); err != nil {
		t.Fatalf("drained job's report not persisted: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.hookRunning = func(*Job) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, blocker, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.02}`)
	<-entered
	code, queued, _, _ := postJob(t, ts, `{"kind":"run","app":"cuibm","scale":0.02}`)
	if code != 202 {
		t.Fatalf("queued submit: %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if v := getStatus(t, ts, queued.ID); v.Status != StateCanceled {
		t.Fatalf("canceled queued job is %s", v.Status)
	}

	close(release)
	if v := waitState(t, ts, blocker.ID); v.Status != StateDone {
		t.Fatalf("blocker finished as %s", v.Status)
	}
	// The canceled job stays canceled even after the worker dequeues it.
	if v := waitState(t, ts, queued.ID); v.Status != StateCanceled {
		t.Fatalf("canceled job re-ran as %s", v.Status)
	}
	if got := s.obs.Metrics().Counter("serve/jobs_canceled").Value(); got != 1 {
		t.Fatalf("serve/jobs_canceled = %d, want 1", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.hookRunning = func(*Job) {
		entered <- struct{}{}
		<-release
	}
	j, err := s.Submit(Request{Kind: KindRun, App: "rodinia_gaussian", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if s.Cancel(j.ID) == nil {
		t.Fatal("cancel reported unknown job")
	}
	close(release)
	select {
	case <-j.Done():
	case <-time.After(hangWait(t, 30*time.Second)):
		t.Fatal("canceled job never terminal")
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("canceled running job is %s", st)
	}
	if j.Result() != nil {
		t.Fatal("canceled job has a result")
	}
}

func TestJobTimeout(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A nanosecond budget expires before any pipeline completes.
	j, err := s.Submit(Request{Kind: KindTable1, Scale: 0.05, TimeoutSeconds: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(hangWait(t, 30*time.Second)):
		t.Fatal("timed-out job never terminal")
	}
	v := j.View()
	if v.Status != StateCanceled || !strings.Contains(v.Error, "timed out") {
		t.Fatalf("timeout job: %+v", v)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"kind":"frobnicate"}`,
		`{"kind":"run"}`,
		`{"kind":"run","app":"no_such_app"}`,
		`{"kind":"run","app":"cuibm","scale":-1}`,
		`{"kind":"table1","app":"cuibm"}`,
		`{"kind":"run","app":"cuibm","workers":-2}`,
		`{not json`,
		`{"kind":"run","app":"cuibm","bogusField":1}`,
	}
	for _, body := range cases {
		if code, _, _, raw := postJob(t, ts, body); code != 400 {
			t.Errorf("body %s: status %d (%s), want 400", body, code, raw)
		}
	}

	// Unknown job IDs and premature report fetches.
	resp, _ := http.Get(ts.URL + "/jobs/j999")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/jobs/j999/report")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown job report: %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueCapacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" || health["accepting"] != true {
		t.Fatalf("healthz: %v", health)
	}
	if health["queueCapacity"].(float64) != 3 {
		t.Fatalf("healthz capacity: %v", health)
	}

	code, v, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.02}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts, v.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve/jobs_submitted", "serve/jobs_completed", "sched/jobqueue_accepted", "cache/"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestProgressVisibleWhileRunning checks the span-derived progress
// surface: a running job exposes its current pipeline position.
func TestProgressVisibleWhileRunning(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v, _, _ := postJob(t, ts, `{"kind":"table1","scale":0.05}`)
	if code != 202 {
		t.Fatalf("submit: %d", code)
	}
	final := waitState(t, ts, v.ID)
	if final.Status != StateDone {
		t.Fatalf("job: %+v", final)
	}
	if final.SpansTotal == 0 || final.SpansEnded == 0 {
		t.Fatalf("no span progress recorded: %+v", final)
	}
}

// TestSingleNodeJobIDsUnqualified pins the single-node contract over
// HTTP: job IDs keep the plain j<seq> form, a submission response
// carries no X-Diogenes- routing header, and /healthz reports exactly
// the single-node key set.
func TestSingleNodeJobIDsUnqualified(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v, resp, raw := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}
	if v.ID != "j1" {
		t.Fatalf("single-node job ID %q, want j1", v.ID)
	}
	for name := range resp.Header {
		if strings.HasPrefix(name, "X-Diogenes-") {
			t.Errorf("submission response carries %s", name)
		}
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]json.RawMessage
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range health {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "accepting,jobs,queueCapacity,queueDepth,status"; got != want {
		t.Fatalf("/healthz keys %s, want %s", got, want)
	}
}

// hangWait is how long a hang watchdog waits before failing the test:
// until shortly before the test binary's deadline, so a slow host is
// never mistaken for a hang, or fallback when the test has no deadline.
func hangWait(t *testing.T, fallback time.Duration) time.Duration {
	if d, ok := t.Deadline(); ok {
		if w := time.Until(d) - 5*time.Second; w > 0 {
			return w
		}
	}
	return fallback
}
