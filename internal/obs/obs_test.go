package obs

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"diogenes/internal/simtime"
)

// buildTree constructs one logical span tree; permuted controls the creation
// order of siblings, which must never influence the export.
func buildTree(permuted bool) *Observer {
	o := New("diogenes")
	app := o.Root().Child(0, "app", "demo")
	mk := func(order int, name string, d simtime.Duration) {
		s := app.Child(order, "stage", name)
		s.SetVirtual(d)
		s.SetArg("records", order*10)
	}
	if permuted {
		mk(3, "stage3", 300)
		mk(1, "stage1", 100)
		mk(2, "stage2", 200)
	} else {
		mk(1, "stage1", 100)
		mk(2, "stage2", 200)
		mk(3, "stage3", 300)
	}
	gpu := app.Child(0, "gpu", "stream 0")
	gpu.SetRow(100)
	gpu.SetOffset(50)
	gpu.SetVirtual(400)
	app.End()
	o.AddSelfOverhead(&SelfOverhead{
		App:       "demo",
		Reference: 100,
		Stages:    []StageCost{{Name: "stage1", Raw: 100, Probe: 10}},
	})
	return o
}

// TestChromeLayoutIgnoresCreationOrder is the core determinism contract:
// the Chrome export is a pure function of (order, name) keys, virtual
// durations and offsets — never of the order spans were created in (which
// differs between serial and parallel pipeline executions) and never of
// wall time.
func TestChromeLayoutIgnoresCreationOrder(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTree(false).Trace().Chrome().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTree(true).Trace().Chrome().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("creation order changed the export:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestChromeLayoutSequentialAndPinned checks the two placement rules:
// un-pinned children are laid end to end in (order, name) sequence, and a
// pinned child sits at parent start + offset without advancing the cursor.
func TestChromeLayoutSequentialAndPinned(t *testing.T) {
	o := buildTree(false)
	f := o.Trace().Chrome()

	at := func(name string) ChromeEvent {
		evs := f.EventsNamed(name)
		if len(evs) != 1 {
			t.Fatalf("%d events named %q", len(evs), name)
		}
		return evs[0]
	}
	us := func(ns int64) float64 { return float64(ns) / 1000 }

	if ev := at("stage1"); ev.TS != 0 || ev.Dur != us(100) {
		t.Errorf("stage1 at ts=%g dur=%g", ev.TS, ev.Dur)
	}
	if ev := at("stage2"); ev.TS != us(100) || ev.Dur != us(200) {
		t.Errorf("stage2 at ts=%g dur=%g, want ts=%g", ev.TS, ev.Dur, us(100))
	}
	if ev := at("stage3"); ev.TS != us(300) {
		t.Errorf("stage3 at ts=%g, want %g", ev.TS, us(300))
	}
	gpu := at("stream 0")
	if gpu.TS != us(50) || gpu.TID != 100 {
		t.Errorf("pinned gpu span at ts=%g tid=%d, want ts=%g tid=100", gpu.TS, gpu.TID, us(50))
	}
	// The pinned child is excluded from the sequential cursor but included
	// in the parent extent: children sum 600, pinned end 450.
	if ev := at("demo"); ev.Dur != us(600) {
		t.Errorf("parent dur=%g, want %g", ev.Dur, us(600))
	}
	if _, ok := at("demo").Args["records"]; ok {
		t.Errorf("unexpected args on parent: %v", at("demo").Args)
	}
}

// TestVirtualRollup checks Virtual(): explicit duration wins over smaller
// child extents, child extents win over smaller explicit durations, and a
// pinned child's end can set the extent.
func TestVirtualRollup(t *testing.T) {
	o := New("t")
	s := o.Root().Child(0, "x", "parent")
	a := s.Child(0, "x", "a")
	a.SetVirtual(100)
	b := s.Child(1, "x", "b")
	b.SetVirtual(50)
	if got := s.Virtual(); got != 150 {
		t.Fatalf("sequential rollup = %d, want 150", got)
	}
	s.SetVirtual(1000)
	if got := s.Virtual(); got != 1000 {
		t.Fatalf("explicit duration = %d, want 1000", got)
	}
	p := s.Child(2, "x", "pinned")
	p.SetOffset(2000)
	p.SetVirtual(500)
	if got := s.Virtual(); got != 2500 {
		t.Fatalf("pinned extent = %d, want 2500", got)
	}
}

// TestNilSafety drives the whole API through nil receivers: wiring sites
// must never need conditionals.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Trace() != nil || o.Metrics() != nil || o.Root() != nil {
		t.Fatal("nil observer handed out non-nil components")
	}
	if !o.Empty() {
		t.Fatal("nil observer not empty")
	}
	o.AddSelfOverhead(&SelfOverhead{App: "x"})
	sp := o.Root().Child(1, "c", "n")
	if sp != nil {
		t.Fatal("nil span produced a child")
	}
	sp.SetVirtual(1)
	sp.SetOffset(1)
	sp.SetRow(1)
	sp.SetArg("k", "v")
	sp.End()
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Gauge("g").SetMax(2)
	r.Histogram("h").Observe(3)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	if tr.Chrome() == nil {
		t.Fatal("nil trace Chrome() returned nil file")
	}
}

// TestHistogramBucketEdges pins the base-2 bucket geometry: v ≤ 0 lands in
// bucket 0 and bucket i holds [2^(i-1), 2^i).
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, HistBuckets - 1},
	}
	for _, c := range cases {
		h := &Histogram{}
		h.Observe(c.v)
		got := -1
		for i, n := range h.BucketCounts() {
			if n != 0 {
				got = i
			}
		}
		if got != c.bucket {
			t.Errorf("Observe(%d) landed in bucket %d, want %d", c.v, got, c.bucket)
		}
		if c.bucket > 0 {
			if lo, hi := BucketLow(c.bucket), BucketHigh(c.bucket); c.v < lo || c.v >= hi {
				if !(c.bucket == HistBuckets-1 && c.v >= lo) {
					t.Errorf("value %d outside its bucket bounds [%d,%d)", c.v, lo, hi)
				}
			}
		}
	}
	// Quantile upper bound: 100 observations of 3 → p50 within bucket 2.
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 = %d, want 3 (bucket [2,4) upper edge)", q)
	}
	if h.Count() != 100 || h.Sum() != 300 || h.Mean() != 3 {
		t.Errorf("count/sum/mean = %d/%d/%g", h.Count(), h.Sum(), h.Mean())
	}
}

// TestConcurrentMetricUpdates hammers one registry from many goroutines; run
// under -race this proves the lock-free instruments and the get-or-create
// path are race-clean, and the totals prove no update was lost.
func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared/counter").Inc()
				r.Histogram("shared/hist").Observe(int64(i))
				r.Gauge("shared/peak").SetMax(float64(i))
				r.Counter(fmt.Sprintf("worker/%d", w)).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared/counter").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared/hist").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared/peak").Value(); got != perWorker-1 {
		t.Fatalf("peak gauge = %g, want %d", got, perWorker-1)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("worker/%d", w)).Value(); got != perWorker {
			t.Fatalf("worker %d counter = %d", w, got)
		}
	}
}

// TestConcurrentSpanCreation creates spans from concurrent goroutines (the
// parallel pipeline does exactly this) and checks the export still lays
// them out deterministically.
func TestConcurrentSpanCreation(t *testing.T) {
	build := func() *Trace {
		o := New("t")
		parent := o.Root().Child(0, "app", "app")
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := parent.Child(i, "stage", fmt.Sprintf("s%02d", i))
				s.SetVirtual(simtime.Duration(10 * (i + 1)))
				s.SetArg("i", i)
				s.End()
			}(i)
		}
		wg.Wait()
		return o.Trace()
	}
	var a, b bytes.Buffer
	if err := build().Chrome().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Chrome().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("concurrent span creation changed the export")
	}
}

// TestWriteSummaryEmpty checks the empty-observer display path.
func TestWriteSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New("t").WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "no self-measurement data recorded\n" {
		t.Fatalf("empty summary = %q", got)
	}
}

// TestStageNames checks the category filter used by the CI smoke assertions.
func TestStageNames(t *testing.T) {
	o := buildTree(false)
	names := o.Trace().StageNames("stage")
	want := []string{"stage1", "stage2", "stage3"}
	if len(names) != len(want) {
		t.Fatalf("StageNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("StageNames = %v, want %v", names, want)
		}
	}
}

func TestTraceWatch(t *testing.T) {
	var nilTrace *Trace
	ch, cancel := nilTrace.Watch()
	if ch != nil {
		t.Fatal("nil trace returned a live watch channel")
	}
	cancel() // must be a no-op

	tr := NewTrace("root")
	ch, cancel = tr.Watch()
	defer cancel()
	select {
	case <-ch:
		t.Fatal("signal before any change")
	default:
	}
	s := tr.Root().Child(0, "t", "work")
	select {
	case <-ch:
	default:
		t.Fatal("span creation did not signal the watcher")
	}
	// Signals coalesce: many changes while the receiver sleeps leave at
	// most one pending signal.
	for i := 0; i < 5; i++ {
		s.Child(i, "t", "sub").End()
	}
	<-ch
	select {
	case <-ch:
		t.Fatal("signals did not coalesce")
	default:
	}
	s.End()
	select {
	case <-ch:
	default:
		t.Fatal("span end did not signal the watcher")
	}
	cancel()
	cancel() // idempotent
	tr.Root().Child(1, "t", "after")
	select {
	case <-ch:
		t.Fatal("canceled watcher still signaled")
	default:
	}
}
