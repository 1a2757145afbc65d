package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diogenes/internal/serve"
)

func TestLoadgenMatrixAndGates(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 2, QueueCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out bytes.Buffer
	err = Loadgen(&out, []string{
		"-targets", ts.URL,
		"-clients", "2",
		"-cohorts", "5",
		"-duration", "150ms",
		"-scale", "0.05",
		"-json", jsonPath,
		"-gate",
	})
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "valid cohorts: 5/5") {
		t.Fatalf("gated run did not report 5/5 valid cohorts:\n%s", text)
	}
	if !strings.Contains(text, "validity gates passed") {
		t.Fatalf("gated run did not announce the gate verdict:\n%s", text)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("exported matrix is not JSON: %v", err)
	}
	if rep.ValidCohorts != 5 || len(rep.Cohorts) != 5 {
		t.Fatalf("exported matrix has %d/%d valid cohorts, want 5/5", rep.ValidCohorts, len(rep.Cohorts))
	}
	if rep.AggThroughput <= 0 {
		t.Fatalf("aggregate throughput %v, want > 0", rep.AggThroughput)
	}
	for _, co := range rep.Cohorts {
		if co.Interactive.Invalid != 0 || co.Batch.Invalid != 0 {
			t.Fatalf("cohort %d recorded invalid outcomes against a healthy server: %+v", co.Index, co)
		}
	}
}

// TestLoadgenGateFailsOnDeadTarget: transport failures invalidate every
// cohort, and the gate turns that into a distinct nonzero exit.
func TestLoadgenGateFailsOnDeadTarget(t *testing.T) {
	var out bytes.Buffer
	err := Loadgen(&out, []string{
		"-targets", "127.0.0.1:1", // nothing listens on port 1
		"-clients", "1",
		"-cohorts", "5",
		"-duration", "20ms",
		"-gate",
	})
	if err == nil {
		t.Fatal("gate passed against a dead target")
	}
	var ec *ExitCodeError
	if !errors.As(err, &ec) || ec.Code != 3 {
		t.Fatalf("gate failure error %v, want ExitCodeError code 3", err)
	}
}

// TestLoadgenHonoursRetryAfter: a client that gets a 429 with
// Retry-After: 1 backs off instead of resubmitting at once, so inside a
// 300ms cohort each client submits at most once.
func TestLoadgenHonoursRetryAfter(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"queueDepth":0}`))
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, _ *http.Request) {
		posts.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	const clients = 3
	start := time.Now()
	rep := runLoad([]string{ts.URL}, clients, 1, 300*time.Millisecond, 0.8, 0.05, 1)
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("cohort took %v: the Retry-After sleep was not capped at the cohort's end", elapsed)
	}
	if n := posts.Load(); n > clients {
		t.Fatalf("%d submissions from %d clients in one 300ms cohort, want at most one each", n, clients)
	}
	co := rep.Cohorts[0]
	if got := co.Interactive.Backpressed + co.Batch.Backpressed; int64(got) != posts.Load() {
		t.Fatalf("recorded %d backpressed outcomes, stub answered %d", got, posts.Load())
	}
	if co.Valid {
		t.Fatalf("cohort with no accepted submissions marked valid: %+v", co)
	}
}

// TestLoadgenDrainsBetweenCohorts: no submission goes out while a
// target's /healthz still reports a backlog, and a backlog that outlives
// the drain bound is reported as a timeout.
func TestLoadgenDrainsBetweenCohorts(t *testing.T) {
	var polls, early atomic.Int64
	var stuck atomic.Bool
	const busyPolls = 3
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		depth := 0
		if polls.Add(1) <= busyPolls || stuck.Load() {
			depth = 5
		}
		json.NewEncoder(w).Encode(map[string]int{"queueDepth": depth})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, _ *http.Request) {
		if polls.Load() <= busyPolls {
			early.Add(1)
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep := runLoad([]string{ts.URL}, 1, 1, 30*time.Millisecond, 1, 0.05, 1)
	if early.Load() != 0 {
		t.Fatalf("%d submissions went out before the backlog drained", early.Load())
	}
	if !rep.Cohorts[0].Valid {
		t.Fatalf("cohort after a completed drain is invalid: %+v", rep.Cohorts[0])
	}

	stuck.Store(true)
	if drain(http.DefaultClient, []string{ts.URL}, 50*time.Millisecond) {
		t.Fatal("drain reported success against a backlog that never emptied")
	}
}

func TestLoadgenRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-cohorts", "0"},
		{"-mix", "1.5"},
		{"-targets", " , "},
		{"positional"},
	} {
		if err := Loadgen(&bytes.Buffer{}, args); err == nil {
			t.Fatalf("args %v accepted, want an error", args)
		}
	}
}

func TestPercentile(t *testing.T) {
	micros := []int64{50, 10, 40, 30, 20}
	cases := []struct {
		p    int
		want int64
	}{{50, 30}, {90, 50}, {99, 50}, {100, 50}}
	for _, c := range cases {
		if got := percentile(micros, c.p); got != c.want {
			t.Fatalf("percentile(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile of empty sample = %d, want 0", got)
	}
	// The input must not be reordered in place.
	if micros[0] != 50 {
		t.Fatalf("percentile mutated its input: %v", micros)
	}
}
