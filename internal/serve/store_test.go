package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diogenes/internal/experiments"
	"diogenes/internal/obs"
)

// hexKey builds a distinct valid (lower-case hex) store key.
func hexKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := hexKey(0)
	if _, err := d.Get(key); !errors.Is(err, experiments.ErrNotFound) {
		t.Fatalf("Get before Put: %v, want ErrNotFound", err)
	}
	val := []byte(`{"report":"payload"}`)
	if err := d.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, want %q", got, val)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	// Overwrite under the same key is fine (content-addressed, so the
	// value is the same in practice; atomicity is what matters).
	if err := d.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len after re-put = %d, want 1", d.Len())
	}
}

func TestDiskStoreRejectsHostileKeys(t *testing.T) {
	d, err := OpenDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"",
		"../escape",
		"ABCDEF",                 // upper-case
		"zzzz",                   // not hex
		"a/b",                    // separator
		strings.Repeat("a", 129), // too long
	} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a hostile key", key)
		}
		if _, err := d.Get(key); err == nil || errors.Is(err, experiments.ErrNotFound) {
			t.Errorf("Get(%q) did not reject the key", key)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("hostile keys created %d entries", d.Len())
	}
}

func TestDiskStoreEvictsLRU(t *testing.T) {
	// Budget fits two 100-byte entries; a third evicts the least recently
	// used one.
	d, err := OpenDiskStore(t.TempDir(), 220)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	d.SetMetrics(m)
	val := bytes.Repeat([]byte("x"), 100)

	if err := d.Put(hexKey(0), val); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(1), val); err != nil {
		t.Fatal(err)
	}
	// Touch key 0 so key 1 becomes the LRU entry.
	if _, err := d.Get(hexKey(0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(2), val); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Get(hexKey(1)); !errors.Is(err, experiments.ErrNotFound) {
		t.Fatalf("LRU entry survived: %v", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := d.Get(hexKey(i)); err != nil {
			t.Fatalf("recently used key %d evicted: %v", i, err)
		}
	}
	if got := m.Counter("store/evictions").Value(); got != 1 {
		t.Fatalf("store/evictions = %d, want 1", got)
	}
}

func TestDiskStoreEvictionDeterministicOnSharedMtime(t *testing.T) {
	// Filesystem mtime resolution is bounded: two entries touched within
	// one timestamp tick compare equal, and an mtime-only sort would pick
	// an arbitrary victim. Force that tie with Chtimes and assert the
	// in-memory access stamps break it in true use order.
	dir := t.TempDir()
	d, err := OpenDiskStore(dir, 220)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 100)
	if err := d.Put(hexKey(0), val); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(1), val); err != nil {
		t.Fatal(err)
	}
	// Key 0 is now the more recently used entry — but collapse both
	// mtimes onto one tick so the filesystem cannot tell.
	if _, err := d.Get(hexKey(0)); err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Add(-time.Minute)
	for _, i := range []int{0, 1} {
		if err := os.Chtimes(filepath.Join(dir, hexKey(i)+storeExt), tick, tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put(hexKey(2), val); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(hexKey(1)); !errors.Is(err, experiments.ErrNotFound) {
		t.Fatalf("least recently used tied entry survived: %v", err)
	}
	if _, err := d.Get(hexKey(0)); err != nil {
		t.Fatalf("recently used tied entry evicted: %v", err)
	}
}

func TestDiskStoreEvictionDeterministicForUntouchedEntries(t *testing.T) {
	// A fresh instance has no access history for entries written by a
	// previous process. With their mtimes tied, the victim must still be
	// deterministic: lowest path.
	dir := t.TempDir()
	writer, err := OpenDiskStore(dir, 220)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 100)
	if err := writer.Put(hexKey(0), val); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(hexKey(1), val); err != nil {
		t.Fatal(err)
	}
	tick := time.Now().Add(-time.Minute)
	for _, i := range []int{0, 1} {
		if err := os.Chtimes(filepath.Join(dir, hexKey(i)+storeExt), tick, tick); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDiskStore(dir, 220)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(2), val); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(hexKey(0)); !errors.Is(err, experiments.ErrNotFound) {
		t.Fatalf("lowest-path tied entry survived: %v", err)
	}
	if _, err := d.Get(hexKey(1)); err != nil {
		t.Fatalf("wrong tied entry evicted: %v", err)
	}
}

func TestDiskStoreNeverEvictsJustWritten(t *testing.T) {
	// A single oversized entry stays — the budget is soft by one document.
	d, err := OpenDiskStore(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(0), bytes.Repeat([]byte("x"), 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(hexKey(0)); err != nil {
		t.Fatalf("oversized just-written entry evicted: %v", err)
	}
}

func TestDiskStoreToleratesForeignRemoval(t *testing.T) {
	// Another process (or instance) removing a file behind our back is a
	// miss, not an error.
	dir := t.TempDir()
	d, err := OpenDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, hexKey(0)+storeExt)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(hexKey(0)); !errors.Is(err, experiments.ErrNotFound) {
		t.Fatalf("foreign removal: %v, want ErrNotFound", err)
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	// Stray files without the store extension are neither counted nor
	// evicted.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hands off"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(hexKey(0), bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}
