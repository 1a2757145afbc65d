package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/hashstore"
	"diogenes/internal/obs"
	"diogenes/internal/trace"
)

// fakeReport builds a minimal report whose cost is stable (app names of
// equal length cost the same), for exercising the byte budget without
// running pipelines.
func fakeReport(app string) *ffm.Report {
	return &ffm.Report{App: app}
}

func TestReportCacheByteBudgetEvictsLRU(t *testing.T) {
	c := NewReportCache()
	m := obs.NewRegistry()
	c.SetMetrics(m)

	one := reportCost(fakeReport("app-0"))
	if one <= 0 {
		t.Fatalf("reportCost = %d, want > 0", one)
	}
	c.SetByteBudget(3 * one)

	get := func(i int) {
		t.Helper()
		rep, err := c.Report(fmt.Sprintf("key-%d", i), func() (*ffm.Report, error) {
			return fakeReport(fmt.Sprintf("app-%d", i)), nil
		})
		if err != nil || rep == nil {
			t.Fatalf("Report(%d): %v", i, err)
		}
	}

	for i := 0; i < 3; i++ {
		get(i)
	}
	if ev := c.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d before exceeding budget", ev)
	}
	get(3) // over budget: key-0 is LRU and must go
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if got := m.Counter("cache/evictions").Value(); got != 1 {
		t.Fatalf("cache/evictions counter = %d, want 1", got)
	}
	if got, want := c.Bytes(), 3*one; got != want {
		t.Fatalf("resident bytes = %d, want %d", got, want)
	}

	// key-0 was evicted: asking again recomputes (a miss), while key-3 is
	// still resident (a hit).
	_, missesBefore, _ := c.Stats()
	get(0)
	_, missesAfter, _ := c.Stats()
	if missesAfter != missesBefore+1 {
		t.Fatalf("re-fetch of evicted key: misses %d -> %d, want a new miss", missesBefore, missesAfter)
	}
	hitsBefore, _, _ := c.Stats()
	get(3)
	hitsAfter, _, _ := c.Stats()
	if hitsAfter != hitsBefore+1 {
		t.Fatalf("fetch of resident key: hits %d -> %d, want a hit", hitsBefore, hitsAfter)
	}
}

func TestReportCacheLRUOrderFollowsUse(t *testing.T) {
	c := NewReportCache()
	one := reportCost(fakeReport("app-0"))
	c.SetByteBudget(2 * one)

	get := func(i int) {
		t.Helper()
		if _, err := c.Report(fmt.Sprintf("key-%d", i), func() (*ffm.Report, error) {
			return fakeReport(fmt.Sprintf("app-%d", i)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(0)
	get(1)
	get(0) // touch key-0: key-1 becomes LRU
	get(2) // evicts key-1
	hits, _, _ := c.Stats()
	get(0)
	hitsAfter, _, _ := c.Stats()
	if hitsAfter != hits+1 {
		t.Fatal("key-0 should have survived eviction (it was recently used)")
	}
}

func TestReportCacheOversizedEntryRetained(t *testing.T) {
	c := NewReportCache()
	c.SetByteBudget(1) // smaller than any report
	rep, err := c.Report("big", func() (*ffm.Report, error) { return fakeReport("big"), nil })
	if err != nil || rep == nil {
		t.Fatalf("oversized report: %v", err)
	}
	// Soft budget: the entry that triggered the pass survives ...
	hits, _, _ := c.Stats()
	if _, err := c.Report("big", func() (*ffm.Report, error) {
		t.Fatal("oversized entry was evicted by its own arrival")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := c.Stats(); h != hits+1 {
		t.Fatal("expected a cache hit on the retained oversized entry")
	}
	// ... but the next arrival evicts it.
	if _, err := c.Report("next", func() (*ffm.Report, error) { return fakeReport("next"), nil }); err != nil {
		t.Fatal(err)
	}
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestSetByteBudgetSheddingExisting(t *testing.T) {
	c := NewReportCache()
	one := reportCost(fakeReport("a"))
	for i := 0; i < 4; i++ {
		if _, err := c.Report(fmt.Sprintf("k%d", i), func() (*ffm.Report, error) {
			return fakeReport("a"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetByteBudget(2 * one)
	if got, want := c.Bytes(), 2*one; got != want {
		t.Fatalf("bytes after shrink = %d, want %d", got, want)
	}
	if ev := c.Evictions(); ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
}

// cachedApp runs one app through a fresh caching engine, returning the
// engine (for repeat fetches of the same key) and the cached report.
func cachedApp(t *testing.T, app string, scale float64) (*Engine, *ffm.Report) {
	t.Helper()
	eng := NewEngine(2)
	rep, err := eng.RunApp(app, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := eng.Cache.Stats(); misses != 1 || entries != 1 {
		t.Fatalf("cache misses=%d entries=%d, want the report cached once", misses, entries)
	}
	return eng, rep
}

func TestReportCostAllocatesNothing(t *testing.T) {
	_, rep := cachedApp(t, "rodinia_gaussian", 0.05)
	if allocs := testing.AllocsPerRun(10, func() { reportCost(rep) }); allocs != 0 {
		t.Fatalf("reportCost allocated %.0f times per call, want 0", allocs)
	}
}

func TestReportCostGrowsWithContent(t *testing.T) {
	_, small := cachedApp(t, "rodinia_gaussian", 0.05)
	_, large := cachedApp(t, "rodinia_gaussian", 0.1)
	if len(small.Trace.Records) == 0 {
		t.Fatal("rodinia_gaussian@0.05 produced no trace records")
	}
	empty := reportCost(fakeReport("rodinia_gaussian"))
	cs, cl := reportCost(small), reportCost(large)
	if cs <= empty {
		t.Fatalf("cost with %d records = %d, not above the empty report's %d", len(small.Trace.Records), cs, empty)
	}
	if cs >= cl {
		t.Fatalf("cost at scale 0.05 = %d, not below scale 0.1's %d", cs, cl)
	}
}

// TestCachedReportResolvedAndShareable pins the cache's publish rule: a
// cached report carries its stage-3 hashes before any caller sees it, so
// concurrent readers rendering the shared report only read it.
func TestCachedReportResolvedAndShareable(t *testing.T) {
	eng, rep := cachedApp(t, "rodinia_gaussian", 0.05)
	transfers := 0
	for _, rec := range rep.Trace.Records {
		if rec.Class != trace.ClassTransfer {
			continue
		}
		transfers++
		if !hashstore.ValidDigest(rec.Hash) {
			t.Fatalf("record %d: hash %q missing at publish", rec.Seq, rec.Hash)
		}
	}
	if transfers == 0 {
		t.Fatal("rodinia_gaussian@0.05 produced no transfer records")
	}

	// Every reader fetches the shared report first; the renders then start
	// together, so nothing but the publish rule orders their accesses.
	const readers = 4
	docs := make([][]byte, readers)
	var fetched, rendered sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		fetched.Add(1)
		rendered.Add(1)
		go func(i int) {
			defer rendered.Done()
			shared, err := eng.RunApp("rodinia_gaussian", 0.05)
			fetched.Done()
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			var buf bytes.Buffer
			if err := shared.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
			docs[i] = buf.Bytes()
		}(i)
	}
	fetched.Wait()
	close(start)
	rendered.Wait()
	if hits, _, _ := eng.Cache.Stats(); hits != readers {
		t.Fatalf("cache hits = %d, want %d", hits, readers)
	}
	for i := 1; i < readers; i++ {
		if !bytes.Equal(docs[i], docs[0]) {
			t.Fatalf("reader %d rendered a different document", i)
		}
	}
}

// TestTable1HitReusesEstimate checks that a warm Table1For reads the
// addressed estimate memoized with the cached report instead of deriving
// it again, that the memo gives the derived value, and that it is tied to
// that very report: any other report is estimated afresh.
func TestTable1HitReusesEstimate(t *testing.T) {
	const app, scale = "cumf_als", 0.05
	eng := NewEngine(1)
	row, err := eng.Table1For(app, scale)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunApp(app, scale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AddressedEstimate(app, rep)
	if err != nil {
		t.Fatal(err)
	}
	if row.Estimated != want {
		t.Fatalf("Table1For estimate %v, derived %v", row.Estimated, want)
	}
	derive := testing.AllocsPerRun(3, func() { _, _ = AddressedEstimate(app, rep) })
	warm := testing.AllocsPerRun(3, func() { _, _ = eng.Table1For(app, scale) })
	if warm >= derive {
		t.Fatalf("warm Table1For allocates %v, deriving the estimate alone %v: the estimate was derived again", warm, derive)
	}

	spec, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := CacheKey(app, scale, apps.Original, eng.config(spec.Factory()))
	if !ok {
		t.Fatal("default config is not cacheable")
	}
	other, err := eng.RunApp("rodinia_gaussian", scale)
	if err != nil {
		t.Fatal(err)
	}
	wantOther, err := AddressedEstimate("rodinia_gaussian", other)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Cache.addressedEstimate(key, "rodinia_gaussian", other); err != nil || got != wantOther {
		t.Fatalf("estimate of a report not held under the key = %v, %v; want %v", got, err, wantOther)
	}
}
