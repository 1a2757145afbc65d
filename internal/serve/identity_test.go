package serve_test

// External test package: internal/cli imports internal/serve (the serve
// subcommand), so comparing against the CLI from inside package serve
// would be an import cycle.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diogenes/internal/cli"
	"diogenes/internal/experiments"
	"diogenes/internal/serve"
)

// submitAndFetchText submits one job, waits for it, and returns the text
// rendering of its report.
func submitAndFetchText(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 && resp.StatusCode != 200 {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.Status != "done" {
		// Follow the job's event stream to its terminal frame.
		client := &http.Client{Timeout: 60 * time.Second}
		r2, err := client.Get(ts.URL + "/jobs/" + v.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(r2.Body)
		event, data := "", ""
		for data == "" && sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "done":
				data = strings.TrimPrefix(line, "data: ")
			}
		}
		if data != "" {
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				t.Fatal(err)
			}
		}
		r2.Body.Close()
		if v.Status == "failed" || v.Status == "canceled" {
			t.Fatalf("job %s ended %s", v.ID, v.Status)
		}
		if v.Status != "done" {
			t.Fatalf("job %s never done (status %s)", v.ID, v.Status)
		}
	}
	r3, err := http.Get(ts.URL + "/jobs/" + v.ID + "/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	text, _ := io.ReadAll(r3.Body)
	if r3.StatusCode != 200 {
		t.Fatalf("report: status %d: %s", r3.StatusCode, text)
	}
	return string(text)
}

// TestServedTable1MatchesCLI is the acceptance criterion: the served
// table1 report is byte-identical to what the CLI prints for the same
// configuration — one rendering path, one deterministic pipeline.
func TestServedTable1MatchesCLI(t *testing.T) {
	var cliOut bytes.Buffer
	if err := cli.Table1(&cliOut, experiments.NewEngine(1), []string{"-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Options{Workers: 2, QueueCapacity: 4, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	served := submitAndFetchText(t, ts, `{"kind":"table1","scale":0.05}`)
	if served != cliOut.String() {
		t.Fatalf("served table1 differs from CLI output\n--- CLI ---\n%s\n--- served ---\n%s", cliOut.String(), served)
	}

	// And the parallel-width server agrees too (determinism invariant).
	served4 := submitAndFetchText(t, ts, `{"kind":"table1","scale":0.05,"workers":4,"fresh":true}`)
	if served4 != cliOut.String() {
		t.Fatalf("workers=4 served table1 differs from CLI output")
	}
}

// TestServedTable2MatchesCLI extends the identity check to the table2
// rendering, which the CLI and server now share via report.Table2Sections.
func TestServedTable2MatchesCLI(t *testing.T) {
	var cliOut bytes.Buffer
	if err := cli.Table2(&cliOut, experiments.NewEngine(1), []string{"-scale", "0.05", "rodinia_gaussian", "cuibm"}); err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Options{Workers: 1, QueueCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	served := submitAndFetchText(t, ts, `{"kind":"table2","scale":0.05,"apps":["rodinia_gaussian","cuibm"]}`)
	if served != cliOut.String() {
		t.Fatalf("served table2 differs from CLI output\n--- CLI ---\n%s\n--- served ---\n%s", cliOut.String(), served)
	}
}
