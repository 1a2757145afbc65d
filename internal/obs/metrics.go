package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a name-addressed collection of counters, gauges and
// histograms. Get-or-create lookups take the registry mutex; updates on the
// returned instruments are lock-free atomics, so hot paths should cache the
// instrument pointer rather than re-resolving the name per event.
//
// All methods are nil-safe: a nil registry hands out nil instruments, and
// nil instruments absorb every update.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Empty reports whether nothing has been registered.
func (r *Registry) Empty() bool {
	if r == nil {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) == 0 && len(r.gauges) == 0 && len(r.hists) == 0
}

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax stores v only if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (zero for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistBuckets is the fixed bucket count of every histogram.
const HistBuckets = 64

// Histogram counts int64 observations into fixed base-2 log-scale buckets:
// bucket 0 holds observations ≤ 0 and bucket i (1 ≤ i ≤ 63) holds the
// half-open range [2^(i-1), 2^i), with the top bucket absorbing everything
// from 2^62 up. Observations are typically virtual nanoseconds; the fixed
// geometry means two histograms are mergeable and comparable without any
// bucket negotiation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	return 1 << (i - 1)
}

// BucketHigh returns the exclusive upper bound of bucket i.
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= HistBuckets-1 {
		return math.MaxInt64
	}
	return 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation, or zero with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1):
// the inclusive upper edge of the bucket where the cumulative count crosses
// q. With log-scale buckets the estimate is within 2× of the true value.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if h == nil || n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			return BucketHigh(i) - 1
		}
	}
	return BucketHigh(HistBuckets - 1)
}

// BucketCounts returns a copy of the per-bucket counts.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, HistBuckets)
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Write dumps the registry as deterministic plain text: one line per
// counter and gauge, a header plus non-empty bucket lines per histogram,
// all sorted by name.
func (r *Registry) Write(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# no metrics recorded")
		return err
	}
	snap := r.Snapshot()
	if _, err := fmt.Fprintln(w, "# diogenes metrics"); err != nil {
		return err
	}
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(w, "counter   %-34s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(w, "gauge     %-34s %g\n", name, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		hs := snap.Histograms[name]
		fmt.Fprintf(w, "histogram %-34s count=%d sum=%d mean=%.1f p50<=%d p95<=%d p99<=%d\n",
			name, hs.Count, hs.Sum, hs.Mean(), hs.quantile(0.50), hs.quantile(0.95), hs.quantile(0.99))
		for i, n := range hs.Buckets {
			if n == 0 {
				continue
			}
			if i == 0 {
				fmt.Fprintf(w, "  bucket (-inf,1) %d\n", n)
				continue
			}
			fmt.Fprintf(w, "  bucket [%d,%d) %d\n", BucketLow(i), BucketHigh(i), n)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RegistrySnapshot is a point-in-time copy of a registry: what the text
// and Prometheus exports and the benchmark harness read.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the snapshot's average observation.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// quantile mirrors Histogram.Quantile on the snapshot.
func (s HistogramSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			return BucketHigh(i) - 1
		}
	}
	return BucketHigh(HistBuckets - 1)
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *RegistrySnapshot {
	snap := &RegistrySnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		snap.Histograms[k] = HistogramSnapshot{Count: v.Count(), Sum: v.Sum(), Buckets: v.BucketCounts()}
	}
	return snap
}
