package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientHonoursRetryAfter runs the client against a stub server that
// refuses the first submission with 429 and Retry-After: 1, then answers
// from its store. The client must wait out the hint, count the refusal as
// a failed attempt, and time the job to the report bytes.
func TestClientHonoursRetryAfter(t *testing.T) {
	var posts atomic.Int32
	var firstPost, secondPost atomic.Int64
	doc := []byte(`{"kind":"run","json":{},"text":"report"}`)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		switch posts.Add(1) {
		case 1:
			firstPost.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			secondPost.Store(time.Now().UnixNano())
			_ = json.NewEncoder(w).Encode(jobView{ID: "j1", Status: "done", FromStore: true, Key: "k"})
		}
	})
	mux.HandleFunc("GET /jobs/j1/report", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") != "doc" {
			http.Error(w, "want format=doc", http.StatusBadRequest)
			return
		}
		w.Write(doc)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newClient(srv.URL, 2)
	start := time.Now()
	got, err := c.do(context.Background(), jobRequest{Kind: "run", App: "amg", Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 2 {
		t.Fatalf("%d submissions, want 2", posts.Load())
	}
	if wait := time.Duration(secondPost.Load() - firstPost.Load()); wait < time.Second {
		t.Fatalf("resubmitted after %v, before the 1s Retry-After", wait)
	}
	if got.total < time.Second || got.total > time.Since(start) {
		t.Fatalf("job timed at %v: must span the refusal wait and end at the report", got.total)
	}
	if string(got.doc) != string(doc) {
		t.Fatalf("report bytes %q", got.doc)
	}
	tl := c.counts()
	if tl.Attempted != 2 || tl.Refused != 1 || tl.failures() != 1 {
		t.Fatalf("tally %+v: want 2 attempts, 1 refused, 1 failure", tl)
	}
	if tl.failedFrac() != 0.5 {
		t.Fatalf("failed_frac %v, want 0.5", tl.failedFrac())
	}
}

func TestClientWaitsForDoneEvent(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(jobView{ID: "j2", Status: "queued"})
	})
	mux.HandleFunc("GET /jobs/j2/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte("event: progress\ndata: {\"id\":\"j2\",\"status\":\"running\"}\n\n"))
		w.Write([]byte(": heartbeat\n\n"))
		w.Write([]byte("event: done\ndata: {\"id\":\"j2\",\"status\":\"done\",\"key\":\"k2\"}\n\n"))
	})
	mux.HandleFunc("GET /jobs/j2/report", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newClient(srv.URL, 2)
	got, err := c.do(context.Background(), jobRequest{Kind: "run", App: "amg", Scale: 0.25, Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.view.Status != "done" || got.view.Key != "k2" {
		t.Fatalf("final view %+v, want the done frame's", got.view)
	}
	if tl := c.counts(); tl.Attempted != 1 || tl.failures() != 0 {
		t.Fatalf("tally %+v", tl)
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics("# diogenes metrics\n" +
		"counter   ledger/appends                     37\n" +
		"gauge     sched/jobqueue_depth               0\n" +
		"histogram ledger/seal_ns                     count=3 sum=6000000 mean=2000000.0 p50<=1 p95<=2 p99<=3\n" +
		"  bucket [1048576,2097152) 3\n")
	for name, want := range map[string]float64{
		"ledger/appends":       37,
		"sched/jobqueue_depth": 0,
		"ledger/seal_ns/count": 3,
		"ledger/seal_ns/mean":  2e6,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}
