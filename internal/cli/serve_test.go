package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"diogenes/internal/buildinfo"
)

// listenWriter is serve's output in tests: it keeps everything written and
// closes listening once serve has printed its "listening on" line, which
// serve writes only after the -addr-file.
type listenWriter struct {
	mu        sync.Mutex
	buf       strings.Builder
	listening chan struct{}
}

func (w *listenWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if w.listening != nil && strings.Contains(w.buf.String(), "listening on") {
		close(w.listening)
		w.listening = nil
	}
	return n, err
}

func (w *listenWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServe runs the serve subcommand in the background with a
// cancellable lifetime and returns the bound base URL plus a stopper that
// triggers the graceful drain and waits for exit.
func startServe(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extraArgs...)
	listening := make(chan struct{})
	out := &listenWriter{listening: listening}
	errCh := make(chan error, 1)
	go func() { errCh <- serveWithContext(ctx, out, args) }()

	select {
	case <-listening:
	case err := <-errCh:
		cancel()
		t.Fatalf("serve exited before listening: %v; output: %s", err, out.String())
	}
	b, err := os.ReadFile(addrFile)
	if err != nil {
		cancel()
		t.Fatalf("serve is listening but -addr-file is unreadable: %v", err)
	}
	addr := strings.TrimSpace(string(b))
	stop := func() error {
		cancel()
		select {
		case err := <-errCh:
			return err
		case <-time.After(hangWait(t, 60*time.Second)):
			t.Fatal("serve did not exit after cancel")
			return nil
		}
	}
	return "http://" + addr, stop
}

// TestServeEndToEnd drives the daemon exactly like the CI smoke step:
// start, submit, poll to completion, fetch the report and /metrics, then
// shut down gracefully.
func TestServeEndToEnd(t *testing.T) {
	store := t.TempDir()
	base, stop := startServe(t, "-store", store, "-queue", "4", "-workers", "2")

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"kind":"run","app":"rodinia_gaussian","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Follow the job's event stream to its terminal frame, whose data line
	// is the job's final view.
	ev, err := (&http.Client{Timeout: 60 * time.Second}).Get(base + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() && sc.Text() != "event: done" {
	}
	if sc.Scan() {
		if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &job); err != nil {
			t.Fatalf("terminal frame: %v", err)
		}
	}
	ev.Body.Close()
	if job.Status != "done" {
		t.Fatalf("job %s stuck at %s", job.ID, job.Status)
	}

	r, err := http.Get(base + "/jobs/" + job.ID + "/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("report: status %d", r.StatusCode)
	}
	r, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("metrics: status %d", r.StatusCode)
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The report persisted across the daemon's lifetime.
	entries, err := os.ReadDir(store)
	if err != nil || len(entries) == 0 {
		t.Fatalf("store %s empty after shutdown (err %v)", store, err)
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	if err := serveWithContext(context.Background(), &strings.Builder{}, []string{"-queue", "-1"}); err == nil {
		t.Fatal("negative queue capacity accepted")
	}
	if err := serveWithContext(context.Background(), &strings.Builder{}, []string{"stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := serveWithContext(context.Background(), &strings.Builder{}, []string{"-addr", "not-an-address"}); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	// serve is single-node: the shard-group flags are unknown, not
	// silently ignored.
	for _, args := range [][]string{{"-peers", "a,b"}, {"-self", "x"}} {
		err := serveWithContext(context.Background(), &strings.Builder{}, args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("serve %v: err %v, want an unknown-flag error", args, err)
		}
	}
}

func TestVersionCommandAndFlag(t *testing.T) {
	code, out, _ := runMain(t, "version")
	if code != 0 {
		t.Fatalf("version: exit %d", code)
	}
	if !strings.HasPrefix(out, "diogenes ") {
		t.Fatalf("version output %q", out)
	}
	code, flagOut, _ := runMain(t, "-version")
	if code != 0 {
		t.Fatalf("-version: exit %d", code)
	}
	if flagOut != out {
		t.Fatalf("-version %q != version %q", flagOut, out)
	}
}

func TestVersionString(t *testing.T) {
	if got := buildinfo.String(nil, false); got != "diogenes (no build info)" {
		t.Fatalf("no build info: %q", got)
	}
	info := &debug.BuildInfo{GoVersion: "go1.24.0"}
	info.Main.Version = "(devel)"
	info.Settings = []debug.BuildSetting{
		{Key: "vcs.revision", Value: "0123456789abcdef0123"},
		{Key: "vcs.modified", Value: "true"},
	}
	want := "diogenes devel go1.24.0 0123456789ab+dirty"
	if got := buildinfo.String(info, true); got != want {
		t.Fatalf("buildinfo.String = %q, want %q", got, want)
	}
}

// TestUsageDocumentsEveryServeFlag keeps the serve block of `diogenes
// help` in step with the flags serve registers.
func TestUsageDocumentsEveryServeFlag(t *testing.T) {
	_, _, errOut := runMain(t, "help")
	start := strings.Index(errOut, "\n  serve [flags]")
	end := strings.Index(errOut, "\n  verify-ledger ")
	if start < 0 || end < start {
		t.Fatalf("usage has no serve block:\n%s", errOut)
	}
	block := errOut[start:end]
	var a serveArgs
	a.flags().VisitAll(func(f *flag.Flag) {
		if !strings.Contains(block, "\n      -"+f.Name+" ") {
			t.Errorf("usage does not document serve -%s", f.Name)
		}
	})
}

func TestUsageMentionsServeAndVersion(t *testing.T) {
	_, _, errOut := runMain(t, "help")
	for _, want := range []string{"serve [flags]", "version", "-queue n"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("usage missing %q", want)
		}
	}
	for _, gone := range []string{"-peers", "-self", "shard group"} {
		if strings.Contains(errOut, gone) {
			t.Errorf("usage still mentions %q", gone)
		}
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
