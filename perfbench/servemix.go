package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diogenes/internal/experiments"
	"diogenes/internal/ledger"
	"diogenes/internal/report"
	"diogenes/internal/serve"
)

// runConfig is one "run" job's input.
type runConfig struct {
	App   string  `json:"app"`
	Scale float64 `json:"scale"`
}

func (r runConfig) String() string { return fmt.Sprintf("%s@%g", r.App, r.Scale) }

// serveParams defines the served workload. Every block of the mix holds
// each listed miss and hit once, in a seeded order; a block's documents
// range from 0.1 MB (amg 0.25) to 4 MB (cuibm 0.1). cumf_als, the middle
// size, is listed three times so that the medians fall inside one job
// size's band of latencies rather than on the edge between two, where a
// shift of one sample would move them by the gap between sizes. The 10th
// percentile likewise falls inside the band of the fastest sixth.
//
// The server keeps every finished job's document in memory, so its peak
// resident memory grows with the jobs a run completes, and a faster host
// would read as a larger peak. It is read when RSSAfterJobs jobs have
// completed: six whole blocks, reached within 15 s even on a slow host.
var serveParams = struct {
	Setups        int         `json:"setups"`
	Clients       int         `json:"clients"`
	ServerWorkers int         `json:"serverWorkers"`
	Queue         int         `json:"queue"`
	RSSAfterJobs  int         `json:"rssAfterJobs"`
	Misses        []runConfig `json:"misses"`
	Hits          []runConfig `json:"hits"`
}{
	Setups:        5,
	Clients:       2,
	ServerWorkers: 1,
	Queue:         16,
	RSSAfterJobs:  72,
	Misses: []runConfig{
		{"rodinia_gaussian", 1.0}, {"amg", 0.25}, {"cumf_als", 0.25}, {"cumf_als", 0.25}, {"cumf_als", 0.25}, {"cuibm", 0.1},
	},
	Hits: []runConfig{
		{"rodinia_gaussian", 1.0}, {"amg", 0.25}, {"cumf_als", 0.25}, {"cumf_als", 0.25}, {"cumf_als", 0.25}, {"cuibm", 0.1},
	},
}

// mixOp is one operation of the served mix.
type mixOp struct {
	cfg  runConfig
	miss bool
}

// mix hands out the seeded operation sequence to the clients.
type mix struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block []mixOp
}

func newMix(seed int64) *mix { return &mix{rng: rand.New(rand.NewSource(seed))} }

func (m *mix) next() mixOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		for _, c := range serveParams.Misses {
			m.block = append(m.block, mixOp{c, true})
		}
		for _, c := range serveParams.Hits {
			m.block = append(m.block, mixOp{c, false})
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	op := m.block[0]
	m.block = m.block[1:]
	return op
}

// server is one `diogenes serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string
	store  string
	exited chan error // receives cmd.Wait's result once
}

// startServer spawns the CLI's daemon on a free port over a fresh store
// and waits for /healthz. Failing to come up is an infrastructure fault.
func startServer(ctx context.Context, e env, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	store := filepath.Join(dir, "store")
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p := serveParams
	cmd := exec.Command(e.bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(p.ServerWorkers), "-queue", strconv.Itoa(p.Queue), "-store", store)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, &infraError{fmt.Errorf("start server: %w", err)}
	}
	s := &server{cmd: cmd, store: store, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for {
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := hc.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, &infraError{fmt.Errorf("server exited before /healthz: %v (see %s)", err, logf.Name())}
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, &infraError{fmt.Errorf("server not healthy within 30s (see %s)", logf.Name())}
		}
	}
}

// stop shuts the server down gracefully (SIGTERM drains the queue and
// seals the ledger) and waits for it to exit; a server that does not exit
// in time is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("server exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return &infraError{errors.New("server did not exit within 60s of SIGTERM")}
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait below reaps either way
	<-s.exited
}

// verifyLedger runs `diogenes verify-ledger` over a stopped server's store.
func verifyLedger(e env, store string) error {
	out, err := exec.Command(e.bin, "verify-ledger", store).CombinedOutput()
	if err != nil {
		return checkFailf("verify-ledger %s: %v: %s", store, err, bytes.TrimSpace(out))
	}
	return nil
}

// served is one measured operation of the mix.
type served struct {
	op mixOp
	t  *jobTiming
}

// docKnown holds the sha256 of every key's stored document.
type docKnown map[string][sha256.Size]byte

// checkDoc verifies that a served document parses and that its bytes are
// the bytes first stored under its key.
func checkDoc(known docKnown, t *jobTiming) error {
	var doc struct {
		Kind string          `json:"kind"`
		JSON json.RawMessage `json:"json"`
		Text string          `json:"text"`
	}
	if err := json.Unmarshal(t.doc, &doc); err != nil {
		return checkFailf("job %s: document does not parse: %v", t.view.ID, err)
	}
	if doc.Kind != "run" || !json.Valid(doc.JSON) || doc.Text == "" {
		return checkFailf("job %s: document lacks its run report", t.view.ID)
	}
	sum := sha256.Sum256(t.doc)
	if want, ok := known[t.view.Key]; ok && want != sum {
		return checkFailf("job %s: bytes for key %s differ from the bytes first stored under it", t.view.ID, t.view.Key)
	}
	known[t.view.Key] = sum
	return nil
}

func runServeMix(e env) (*result, error) {
	ctx := context.Background()
	p := serveParams
	res := &result{layers: map[string]float64{}}
	known := docKnown{}
	docs := map[string][]byte{} // hit key → stored bytes

	var srv *server
	var c *client
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < p.Setups; i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startServer(ctx, e, dir)
		if err != nil {
			return nil, err
		}
		srv = s
		c = newClient(s.base, p.Clients)
		for _, cfg := range distinct(p.Hits) {
			t, err := c.do(ctx, jobRequest{Kind: "run", App: cfg.App, Scale: cfg.Scale})
			if err != nil {
				return nil, fmt.Errorf("store hit key %s: %w", cfg, err)
			}
			if t.view.FromStore {
				return nil, checkFailf("%s answered from a fresh store", cfg)
			}
			if err := checkDoc(known, t); err != nil {
				return nil, err
			}
			docs[t.view.Key] = t.doc
		}
		res.setup = append(res.setup, time.Since(t0))
		if i == p.Setups-1 {
			break
		}
		if err := c.drain(ctx, 30*time.Second); err != nil {
			return nil, err
		}
		srv = nil
		if err := s.stop(); err != nil {
			return nil, err
		}
		if err := verifyLedger(e, s.store); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := c.drain(ctx, 30*time.Second); err != nil {
		return nil, err
	}
	// Set-up requests are not part of the measured phase's accounting.
	c.mu.Lock()
	c.tally = tally{}
	c.mu.Unlock()

	m := newMix(e.seed)
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	phase := func(seconds float64) ([]served, time.Duration, error) {
		var (
			mu      sync.Mutex
			out     []served
			firstEr error
			wg      sync.WaitGroup
		)
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		for i := 0; i < p.Clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					op := m.next()
					t, err := c.do(ctx, jobRequest{Kind: "run", App: op.cfg.App, Scale: op.cfg.Scale, Fresh: op.miss})
					mu.Lock()
					if err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.cfg, err)
					} else if t.view.FromStore == op.miss {
						firstEr = errors.Join(firstEr, checkFailf("%s (miss=%v) answered with fromStore=%v", op.cfg, op.miss, t.view.FromStore))
					} else if err := checkDoc(known, t); err != nil {
						firstEr = errors.Join(firstEr, err)
					} else {
						out = append(out, served{op, t})
						if len(out) == p.RSSAfterJobs && res.rss == 0 {
							rss, err := peakRSSMB(pid)
							firstEr = errors.Join(firstEr, err)
							res.rss = rss
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		span := time.Since(start)
		if firstEr != nil {
			return nil, 0, firstEr
		}
		if err := c.drain(ctx, 30*time.Second); err != nil {
			return nil, 0, err
		}
		return out, span, nil
	}
	split := func(ops []served) (miss, hit []float64) {
		for _, s := range ops {
			if s.op.miss {
				miss = append(miss, ms(s.t.total))
			} else {
				hit = append(hit, ms(s.t.total))
			}
		}
		return miss, hit
	}

	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	ops, span, err := phase(seconds)
	if err != nil {
		return nil, err
	}
	res.miss, res.hit = split(ops)
	res.done, res.span = len(ops), span
	if e.traced {
		tops, _, err := phase(seconds)
		if err != nil {
			return nil, err
		}
		if err := serveLayers(ctx, c, tops, res, split); err != nil {
			return nil, err
		}
	}
	res.ops = c.counts()

	if res.rss == 0 {
		// Too slow a host to complete RSSAfterJobs jobs: the peak of the
		// whole run, which is then smaller than a steady host's.
		fmt.Fprintf(os.Stderr, "perfbench: %d jobs, fewer than %d: peak_rss_mb is the whole run's\n", res.done, p.RSSAfterJobs)
		if res.rss, err = peakRSSMB(pid); err != nil {
			return nil, err
		}
	}
	s := srv
	srv = nil
	if err := s.stop(); err != nil {
		return nil, err
	}
	if err := verifyLedger(e, s.store); err != nil {
		return nil, err
	}
	if e.traced {
		if err := localLayers(e, docs, res.layers); err != nil {
			return nil, err
		}
	}
	res.extra = append(res.extra, metric{"jobs_per_s", "1/s", float64(res.done) / res.span.Seconds()})
	return res, os.RemoveAll(filepath.Dir(s.store))
}

// serveLayers derives the serve-side per-layer metrics of a traced phase
// from the job views' timestamps, the client's own timings and the
// server's /metrics.
func serveLayers(ctx context.Context, c *client, ops []served, res *result, split func([]served) ([]float64, []float64)) error {
	var ack, fetch, wait, exec []float64
	hits := 0
	for _, s := range ops {
		ack = append(ack, ms(s.t.ack))
		fetch = append(fetch, ms(s.t.fetch))
		if !s.op.miss {
			hits++
			continue
		}
		w, err := between(s.t.view.CreatedAt, s.t.view.StartedAt)
		if err != nil {
			return err
		}
		x, err := between(s.t.view.StartedAt, s.t.view.FinishedAt)
		if err != nil {
			return err
		}
		wait = append(wait, ms(w))
		exec = append(exec, ms(x))
	}
	tmiss, _ := split(ops)
	m, err := c.metrics(ctx)
	if err != nil {
		return err
	}
	l := res.layers
	l["serve.ack_ms"] = median(ack)
	l["serve.fetch_ms"] = median(fetch)
	l["sched.queue_wait_ms"] = median(wait)
	l["serve.exec_ms"] = median(exec)
	l["serve.hit_share"] = float64(hits) / float64(len(ops))
	l["sched.jobqueue_depth_peak"] = m["sched/jobqueue_depth_peak"]
	l["store.hits"] = m["store/hits"]
	l["store.misses"] = m["store/misses"]
	l["ledger.appends"] = m["ledger/appends"]
	l["ledger.seals"] = m["ledger/seals"]
	l["ledger.seal_ms"] = m["ledger/seal_ns/mean"] / 1e6
	l["trace.miss_p50_ms"] = median(tmiss)
	l["trace.overhead_pct"] = 100 * (median(tmiss)/median(res.miss) - 1)
	return nil
}

// localLayers times, in this process, the layers a miss job passes
// through after its pipeline: rendering the report (WriteJSON plus
// WriteMarkdown, as the server does) and a DiskStore Put/Get with a
// provenance ledger attached.
func localLayers(e env, docs map[string][]byte, into map[string]float64) error {
	const reps = 3
	var render []float64
	var docMB float64
	for _, cfg := range serveParams.Misses {
		rep, err := (&experiments.Engine{Workers: 1}).RunApp(cfg.App, cfg.Scale)
		if err != nil {
			return err
		}
		var each []float64
		for i := 0; i < reps; i++ {
			var js, md bytes.Buffer
			t0 := time.Now()
			if err := rep.WriteJSON(&js); err != nil {
				return err
			}
			if err := report.WriteMarkdown(&md, rep); err != nil {
				return err
			}
			each = append(each, ms(time.Since(t0)))
			if i == 0 {
				docMB += float64(js.Len()+md.Len()) / (1 << 20)
			}
		}
		render = append(render, median(each))
	}
	into["report.render_ms"] = mean(render)
	into["report.doc_mb"] = docMB / float64(len(serveParams.Misses))

	dir := filepath.Join(e.tmp, fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := serve.OpenDiskStore(dir, 0)
	if err != nil {
		return err
	}
	led, err := ledger.Open(ledger.Config{Path: filepath.Join(dir, "ledger.log")})
	if err != nil {
		return err
	}
	store.AttachLedger(led)
	var put, get []float64
	for i := 0; i < reps; i++ {
		for key, doc := range docs {
			t0 := time.Now()
			if err := store.Put(key, doc); err != nil {
				led.Close()
				return err
			}
			put = append(put, ms(time.Since(t0)))
			t0 = time.Now()
			got, err := store.Get(key)
			get = append(get, ms(time.Since(t0)))
			if err != nil || !bytes.Equal(got, doc) {
				led.Close()
				return checkFailf("local store round trip of %s: %v", key, err)
			}
		}
	}
	if err := led.Close(); err != nil {
		return err
	}
	into["store.put_ms"] = median(put)
	into["store.get_ms"] = median(get)
	return nil
}

// distinct returns cs without repeats, in first-seen order.
func distinct(cs []runConfig) []runConfig {
	var out []runConfig
	seen := map[runConfig]bool{}
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
