package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	View  View
}

// readSSE consumes an event stream until the terminal frame (or EOF) and
// returns the parsed frames plus how many heartbeat comments arrived.
// firstHeartbeat, when non-nil, is called as soon as the first heartbeat
// comment is read.
func readSSE(t *testing.T, url string, firstHeartbeat func()) (frames []sseFrame, heartbeats int) {
	t.Helper()
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": heartbeat"):
			heartbeats++
			if heartbeats == 1 && firstHeartbeat != nil {
				firstHeartbeat()
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			var v View
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				t.Fatalf("frame %q carries unparseable data %q: %v", event, data, err)
			}
			frames = append(frames, sseFrame{Event: event, View: v})
			if event == "done" {
				return frames, heartbeats
			}
			event, data = "", ""
		}
	}
	return frames, heartbeats
}

// TestEventsStreamEndsWithTerminalFrame pins the SSE contract for a run
// job: at least one progress frame, then exactly one terminal frame
// whose view matches the finished job.
func TestEventsStreamEndsWithTerminalFrame(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4, EventSnapshot: 20 * time.Millisecond})
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
	frames, _ := readSSE(t, ts.URL+"/jobs/"+v.ID+"/events", nil)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least a progress and a done frame: %+v", len(frames), frames)
	}
	for _, f := range frames[:len(frames)-1] {
		if f.Event != "progress" {
			t.Fatalf("non-terminal frame has event %q", f.Event)
		}
	}
	last := frames[len(frames)-1]
	if last.Event != "done" {
		t.Fatalf("stream ended with %q, want done", last.Event)
	}
	if last.View.Status != StateDone {
		t.Fatalf("terminal frame status %q, want done", last.View.Status)
	}
	if last.View.SpansTotal == 0 || last.View.SpansEnded == 0 {
		t.Fatalf("terminal frame spans %d/%d, want pipeline progress recorded",
			last.View.SpansEnded, last.View.SpansTotal)
	}
	// The stream and the poll endpoint must agree on the final state.
	got := waitState(t, ts, v.ID)
	if got.SpansTotal != last.View.SpansTotal || got.SpansEnded != last.View.SpansEnded {
		t.Fatalf("poll sees spans %d/%d, terminal frame said %d/%d",
			got.SpansEnded, got.SpansTotal, last.View.SpansEnded, last.View.SpansTotal)
	}
}

// TestEventsFleetTerminalCountersMatchFinalView pins the satellite
// requirement: a fleet job's event stream ends with a terminal frame
// whose reduction counters equal the final View.Fleet.
func TestEventsFleetTerminalCountersMatchFinalView(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4, EventSnapshot: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, v, _, _ := postJob(t, ts, `{"kind":"fleet","app":"amg","ranks":4,"scale":0.05}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	frames, _ := readSSE(t, ts.URL+"/jobs/"+v.ID+"/events", nil)
	last := frames[len(frames)-1]
	if last.Event != "done" {
		t.Fatalf("stream ended with %q, want done", last.Event)
	}
	if last.View.Fleet == nil {
		t.Fatal("terminal fleet frame carries no reduction counters")
	}
	if last.View.Fleet.RanksDone != 4 || last.View.Fleet.RanksTotal != 4 {
		t.Fatalf("terminal counters %d/%d ranks, want 4/4",
			last.View.Fleet.RanksDone, last.View.Fleet.RanksTotal)
	}
	final := waitState(t, ts, v.ID)
	if final.Fleet == nil {
		t.Fatal("final view lost its fleet counters")
	}
	if *last.View.Fleet != *final.Fleet {
		t.Fatalf("terminal frame counters %+v != final view counters %+v",
			*last.View.Fleet, *final.Fleet)
	}
}

// TestEventsFinishedJobYieldsImmediateTerminalFrame: a job that is
// already done (here: served from the persistent store) streams its
// terminal frame without waiting for any tick.
func TestEventsFinishedJobYieldsImmediateTerminalFrame(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4, StoreDir: t.TempDir(),
		EventSnapshot: time.Hour, EventHeartbeat: time.Hour})
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
	code, v2, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.05}`)
	if code != http.StatusOK || !v2.FromStore {
		t.Fatalf("resubmission not store-served: status %d, fromStore %v", code, v2.FromStore)
	}
	start := time.Now()
	frames, _ := readSSE(t, ts.URL+"/jobs/"+v2.ID+"/events", nil)
	if since := time.Since(start); since > 10*time.Second {
		t.Fatalf("terminal frame for a finished job took %s", since)
	}
	last := frames[len(frames)-1]
	if last.Event != "done" || last.View.Status != StateDone || !last.View.FromStore {
		t.Fatalf("unexpected terminal frame %+v", last)
	}
}

// TestEventsHeartbeatsKeepQuietStreamsAlive: with an artificially slow
// job and a fast heartbeat, comment frames appear between progress
// frames.
func TestEventsHeartbeatsKeepQuietStreamsAlive(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 4,
		EventSnapshot: time.Hour, EventHeartbeat: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	entered := make(chan struct{})
	s.hookRunning = func(*Job) {
		close(entered)
		<-release
	}
	code, v, _, _ := postJob(t, ts, `{"kind":"run","app":"rodinia_gaussian","scale":0.02}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-entered
	// Hold the job until the stream has carried a heartbeat, however slow
	// the host: the wait is on the stream itself, not on a wall-clock guess.
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	frames, heartbeats := readSSE(t, ts.URL+"/jobs/"+v.ID+"/events", func() {
		close(release)
		released = true
	})
	if heartbeats == 0 {
		t.Fatal("no heartbeat comments on a quiet stream")
	}
	if frames[len(frames)-1].Event != "done" {
		t.Fatal("stream did not end with the terminal frame")
	}
}

func TestEventsUnknownJob(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/j999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// testCtx returns a context bounded by the test's own lifetime.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}
