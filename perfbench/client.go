package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// jobRequest is the subset of the serve API's POST /jobs body the
// benchmark sends.
type jobRequest struct {
	Kind  string  `json:"kind"`
	App   string  `json:"app"`
	Scale float64 `json:"scale"`
	Fresh bool    `json:"fresh,omitempty"`
}

// jobView is the subset of the serve API's job view the benchmark reads.
type jobView struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Error      string `json:"error"`
	FromStore  bool   `json:"fromStore"`
	Key        string `json:"key"`
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt"`
	FinishedAt string `json:"finishedAt"`
}

// between parses two RFC 3339 stamps of a view and returns b − a.
func between(a, b string) (time.Duration, error) {
	ta, err := time.Parse(time.RFC3339Nano, a)
	if err != nil {
		return 0, err
	}
	tb, err := time.Parse(time.RFC3339Nano, b)
	if err != nil {
		return 0, err
	}
	return tb.Sub(ta), nil
}

// client is the benchmark's own serve client. Unlike `diogenes loadgen`
// it times every job to the last byte of its report, honours Retry-After
// on every refusal and counts the refusal as a failed attempt, and can
// wait for the server to go idle.
type client struct {
	base string
	hc   *http.Client

	mu    sync.Mutex
	tally tally
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

// maxRefusedWait bounds how long one operation may keep being refused.
const maxRefusedWait = time.Minute

func (c *client) count(o outcome) {
	c.mu.Lock()
	c.tally.add(o)
	c.mu.Unlock()
}

func (c *client) counts() tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally
}

// jobTiming is one completed operation: submit to the last report byte.
type jobTiming struct {
	total, ack, fetch time.Duration
	view              jobView // the terminal view
	doc               []byte
}

// do runs one job end to end: POST (sleeping out refusals), wait for the
// terminal event unless the answer was already done, fetch the stored
// document. Every attempt is counted; a refused attempt as a failure.
func (c *client) do(ctx context.Context, req jobRequest) (*jobTiming, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var t jobTiming
	for {
		ackStart := time.Now()
		status, retryAfter, view, err := c.post(ctx, body)
		t.ack = time.Since(ackStart)
		o := classify(status, err)
		if o == outcomeRefused {
			c.count(o)
			if time.Since(start)+retryAfter > maxRefusedWait {
				return nil, fmt.Errorf("submit refused for over %v", maxRefusedWait)
			}
			select {
			case <-time.After(retryAfter):
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if o != outcomeOK {
			c.count(o)
			if err == nil {
				err = fmt.Errorf("POST /jobs: HTTP %d", status)
			}
			return nil, err
		}
		t.view = view
		break
	}
	if t.view.Status != "done" {
		v, err := c.waitDone(ctx, t.view.ID)
		if err != nil {
			c.count(outcomeTransport)
			return nil, err
		}
		t.view = v
	}
	if t.view.Status != "done" {
		c.count(outcomeFailed)
		return nil, fmt.Errorf("job %s ended %s: %s", t.view.ID, t.view.Status, t.view.Error)
	}
	fetchStart := time.Now()
	status, doc, err := c.get(ctx, "/jobs/"+t.view.ID+"/report?format=doc")
	t.fetch = time.Since(fetchStart)
	t.total = time.Since(start)
	if o := classify(status, err); o != outcomeOK {
		c.count(o)
		if err == nil {
			err = fmt.Errorf("GET report: HTTP %d", status)
		}
		return nil, err
	}
	c.count(outcomeOK)
	t.doc = doc
	return &t, nil
}

// post submits one job and returns the status, the Retry-After hint of a
// refusal (1s when the header is missing or malformed) and the view.
func (c *client) post(ctx context.Context, body []byte) (int, time.Duration, jobView, error) {
	var v jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, 0, v, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, v, err
	}
	retryAfter := time.Second
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
		retryAfter = time.Duration(n) * time.Second
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			return resp.StatusCode, 0, v, fmt.Errorf("decode job view: %w", err)
		}
	}
	return resp.StatusCode, retryAfter, v, nil
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// waitDone follows the job's server-sent event stream to its terminal
// frame and returns the final view. Waiting on the stream instead of
// polling adds no polling interval to the measured latency.
func (c *client) waitDone(ctx context.Context, id string) (jobView, error) {
	var v jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return v, fmt.Errorf("decode done frame: %w", err)
			}
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("event stream of job %s ended without a done frame", id)
}

// metrics scrapes /metrics and parses its plain-text rendering into
// counters and gauges by name, and histograms as <name>/count and
// <name>/mean.
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	status, data, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return parseMetrics(string(data)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		case "histogram":
			for _, kv := range f[2:] {
				k, val, ok := strings.Cut(kv, "=")
				if !ok || (k != "count" && k != "mean") {
					continue
				}
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					out[f[1]+"/"+k] = v
				}
			}
		}
	}
	return out
}

// drain waits until the server is idle: no job queued and every accepted
// job finished. A server that does not get there in time is an
// infrastructure fault, not a measurement.
func (c *client) drain(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := c.metrics(ctx)
		if err == nil && m["sched/jobqueue_depth"] == 0 && m["sched/jobqueue_accepted"] == m["sched/jobqueue_finished"] {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("depth %v, %v accepted, %v finished", m["sched/jobqueue_depth"],
					m["sched/jobqueue_accepted"], m["sched/jobqueue_finished"])
			}
			return &infraError{fmt.Errorf("drain did not reach idle within %v: %w", timeout, err)}
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
