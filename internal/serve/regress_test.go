package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestCancelSurvivesRetentionEviction is the regression test for the
// handleCancel nil-deref: the handler used to look the job up a second
// time after canceling it, and retention shedding (manager.add evicting
// terminal jobs past the RetainJobs bound) could remove the record in
// that window. The fix renders the handle Cancel itself returned. The
// hookCanceled seam forces the eviction deterministically inside the
// old race window.
func TestCancelSurvivesRetentionEviction(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4, RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts, v.ID)

	// Between Cancel and the render, a new submission sheds the finished
	// job from the registry — exactly what the old second lookup raced.
	s.hookCanceled = func(id string) {
		if _, err := s.Submit(Request{Kind: KindRun, App: "amg", Scale: 0.05}); err != nil {
			t.Errorf("eviction-triggering submit: %v", err)
		}
		if s.Job(id) != nil {
			t.Errorf("job %s still registered; the test did not force the eviction", id)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d (the pre-fix server 404ed or crashed here): %s", resp.StatusCode, raw)
	}
	var got View
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != v.ID {
		t.Fatalf("cancel rendered job %q, want %q", got.ID, v.ID)
	}
}

// TestRetryAfterHeaderMatchesBody is the regression test for the double
// computation in handleSubmit: header and body each used to call
// retryAfterSeconds(), and the live queue depth could change between the
// two calls, shipping a response that disagreed with itself. The seam
// returns a different value on every call, so any second computation
// fails the test deterministically.
func TestRetryAfterHeaderMatchesBody(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var calls int
	var mu sync.Mutex
	s.retryAfterFn = func() int {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return 40 + calls // 41, 42, ... — never the same twice
	}

	// Pin the worker on the first job and fill the one queue slot, so the
	// third submission is turned away.
	entered := make(chan struct{})
	release := make(chan struct{})
	s.hookRunning = func(*Job) {
		close(entered)
		<-release
	}
	defer close(release)
	if code, _, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	<-entered
	if code, _, _, _ := postJob(t, ts, `{"kind":"run","app":"amg","scale":0.05}`); code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}

	code, _, resp, raw := postJob(t, ts, `{"kind":"run","app":"cuibm","scale":0.05}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429: %s", code, raw)
	}
	header, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After header %q: %v", resp.Header.Get("Retry-After"), err)
	}
	var body errorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if header != body.RetryAfterSeconds {
		t.Fatalf("Retry-After header %d != body retryAfterSeconds %d (hint computed twice)",
			header, body.RetryAfterSeconds)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("retry hint computed %d times for one response, want once", calls)
	}
}

// TestServeInteractivePreemptsBatchBacklog pins the admission-class
// mapping end to end: with batch suites queued ahead of it, an
// interactive run submission is the next job the single worker starts.
func TestServeInteractivePreemptsBatchBacklog(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))

	var mu sync.Mutex
	var order []string
	entered := make(chan struct{})
	release := make(chan struct{})
	first := true
	s.hookRunning = func(j *Job) {
		mu.Lock()
		if first {
			first = false
			mu.Unlock()
			close(entered)
			<-release
			return
		}
		order = append(order, j.ID)
		mu.Unlock()
	}

	// Block the worker, then queue two batch suites and one interactive
	// run behind it.
	blocker, err := s.Submit(Request{Kind: KindRun, App: "rodinia_gaussian", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	b1, err := s.Submit(Request{Kind: KindFleet, App: "amg", Ranks: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Submit(Request{Kind: KindTable1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := s.Submit(Request{Kind: KindRun, App: "cuibm", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, j := range []*Job{blocker, b1, b2, inter} {
		select {
		case <-j.Done():
		case <-time.After(hangWait(t, 30*time.Second)):
			t.Fatalf("job %s never finished", j.ID)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("recorded %d starts after the blocker, want 3: %v", len(order), order)
	}
	if order[0] != inter.ID {
		t.Fatalf("worker started %v first; the interactive job %s must preempt the queued batch suites (order %v)",
			order[0], inter.ID, order)
	}
	if order[1] != b1.ID || order[2] != b2.ID {
		t.Fatalf("batch suites ran out of FIFO order: %v, want [%s %s]", order[1:], b1.ID, b2.ID)
	}
}
