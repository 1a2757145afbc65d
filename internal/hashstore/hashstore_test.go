package hashstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"diogenes/internal/memory"
	"diogenes/internal/obs"
)

// bytesView returns a dense view of p from a source of its own, so no memo
// can answer for it and the store hashes it.
func bytesView(p []byte) memory.View {
	return memory.ViewOf(new(byte), p, 0, 0, 0, len(p))
}

func TestFirstInsertNotDuplicate(t *testing.T) {
	s := New()
	dup, first, _ := s.Insert(bytesView([]byte("payload")), 10)
	if dup {
		t.Fatal("first insert reported duplicate")
	}
	if first != 10 {
		t.Fatalf("firstSeq = %d, want 10", first)
	}
	if s.Len() != 1 || s.Inserts() != 1 || s.Duplicates() != 0 {
		t.Fatalf("stats: len=%d inserts=%d dups=%d", s.Len(), s.Inserts(), s.Duplicates())
	}
}

func TestDuplicateDetection(t *testing.T) {
	s := New()
	s.Insert(bytesView([]byte("same bytes")), 1)
	dup, first, _ := s.Insert(bytesView([]byte("same bytes")), 5)
	if !dup {
		t.Fatal("identical payload not flagged")
	}
	if first != 1 {
		t.Fatalf("firstSeq = %d, want 1", first)
	}
	e, ok := s.Lookup(Hash([]byte("same bytes")))
	if !ok || e.Count != 2 || e.FirstSeq != 1 || e.Bytes != len("same bytes") {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if s.Duplicates() != 1 || s.DuplicateBytes() != int64(len("same bytes")) {
		t.Fatalf("dup stats: %d / %d", s.Duplicates(), s.DuplicateBytes())
	}
}

func TestDistinctPayloadsDistinctKeys(t *testing.T) {
	s := New()
	_, _, h1 := s.Insert(bytesView([]byte("aaaa")), 1)
	dup, _, h2 := s.Insert(bytesView([]byte("aaab")), 2)
	if dup {
		t.Fatal("different payload flagged duplicate")
	}
	if h1 == h2 {
		t.Fatal("hash collision on trivially different inputs")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLookupMissing(t *testing.T) {
	s := New()
	if _, ok := s.Lookup(Hash([]byte("never inserted"))); ok {
		t.Fatal("Lookup found phantom entry")
	}
}

func TestKeyStrings(t *testing.T) {
	k := Hash([]byte("x"))
	if len(k.String()) != 16 {
		t.Fatalf("short form %q not 16 hex chars", k.String())
	}
	if len(k.Hex()) != 64 {
		t.Fatalf("full form %q not 64 hex chars", k.Hex())
	}
}

func TestEmptyPayload(t *testing.T) {
	s := New()
	dup1, _, _ := s.Insert(bytesView(nil), 1)
	dup2, first, hash := s.Insert(bytesView([]byte{}), 2)
	if dup1 {
		t.Fatal("first empty payload flagged duplicate")
	}
	if !dup2 || first != 1 {
		t.Fatal("empty payloads should hash identically")
	}
	if hash != Key(sha256.Sum256(nil)).String() {
		t.Fatal("empty payload digest differs from sha256.Sum256(nil)")
	}
}

func TestRefMatchesEagerHash(t *testing.T) {
	payloads := [][]byte{nil, []byte("a"), []byte("hello world"), make([]byte, 4096)}
	s := New()
	for i, p := range payloads {
		_, _, hash := s.Insert(bytesView(p), int64(i))
		if want := Hash(p).String(); hash != want {
			t.Fatalf("payload %d: short hex %q != %q", i, hash, want)
		}
		if _, ok := s.Lookup(Hash(p)); !ok {
			t.Fatalf("payload %d: Lookup by its sha256 digest failed", i)
		}
	}
}

func TestRefStringInterned(t *testing.T) {
	s := New()
	_, _, a := s.Insert(bytesView([]byte("interned")), 1)
	_, _, b := s.Insert(bytesView([]byte("interned")), 2)
	if a != b {
		t.Fatalf("duplicate inserts return different hashes: %q vs %q", a, b)
	}
	// Same backing allocation: interning means duplicate records share one
	// string, not just equal ones.
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("duplicate inserts did not intern the hex string")
	}
}

// TestMetricsCounters pins the counter definitions: sha256_computed counts
// sha256 computations, sha256_avoided the inserts whose digest came from a
// memo. A dense duplicate read from another source, or from its source at
// a later version, is hashed again.
func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := New()
	s.SetMetrics(reg)
	sp := memory.NewSpace()
	src := sp.Alloc(3, "src")
	view := func() memory.View {
		v, err := sp.View(src.Base(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s.Insert(view(), 1) // uniform zeros: computed
	s.Insert(view(), 2) // the same (fill, length): avoided
	if err := sp.Poke(src.Base(), []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.Insert(view(), 3)                   // computed
	s.Insert(view(), 4)                   // unchanged source: avoided
	s.Insert(bytesView([]byte("one")), 5) // another source: computed, duplicate
	if err := sp.Poke(src.Base(), []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.Insert(view(), 6) // rewritten: computed, duplicate
	if got := reg.Counter("hashstore/sha256_computed").Value(); got != 4 {
		t.Fatalf("sha256_computed = %d, want 4", got)
	}
	if got := reg.Counter("hashstore/sha256_avoided").Value(); got != 2 {
		t.Fatalf("sha256_avoided = %d, want 2 (the memo hits)", got)
	}
	if s.Len() != 2 || s.Duplicates() != 4 {
		t.Fatalf("distinct = %d, duplicates = %d, want 2 and 4", s.Len(), s.Duplicates())
	}
}

// TestUniformPayloadUnread checks that a uniform view is classified and
// digested like its bytes without those bytes ever existing: the region it
// was read from stays uniform, and a dense payload with the same bytes is
// its duplicate.
func TestUniformPayloadUnread(t *testing.T) {
	sp := memory.NewSpace()
	const n = 10000 // several hashing blocks and a ragged tail
	r := sp.Alloc(n, "uniform")
	if err := sp.Fill(r.Base(), 0x5a, n); err != nil {
		t.Fatal(err)
	}
	v, err := sp.View(r.Base(), n)
	if err != nil || !v.Uniform() {
		t.Fatalf("view of a filled region: uniform=%v err=%v", v.Uniform(), err)
	}
	s := New()
	dense := bytes.Repeat([]byte{0x5a}, n)
	if dup, _, hash := s.Insert(v, 1); dup || hash != Hash(dense).String() {
		t.Fatalf("uniform insert: dup=%v hash=%q, want fresh %q", dup, hash, Hash(dense).String())
	}
	if dup, first, _ := s.Insert(bytesView(dense), 2); !dup || first != 1 {
		t.Fatalf("dense copy of a uniform payload: dup=%v first=%d", dup, first)
	}
	if v, _ := sp.View(r.Base(), n); !v.Uniform() {
		t.Fatal("hashing a uniform payload materialised its region")
	}
	if e, ok := s.Lookup(Hash(dense)); !ok || e.Bytes != n || e.Count != 2 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
}

func TestConcurrentInsert(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				payload := []byte(fmt.Sprintf("payload-%d", i%17))
				if _, _, hash := s.Insert(bytesView(payload), int64(g*1000+i)); hash != Hash(payload).String() {
					t.Errorf("payload %q: hash %q", payload, hash)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 17 {
		t.Fatalf("Len = %d, want 17 distinct payloads", s.Len())
	}
	if s.Inserts() != 8*200 {
		t.Fatalf("Inserts = %d, want %d", s.Inserts(), 8*200)
	}
	if s.Duplicates() != s.Inserts()-int64(s.Len()) {
		t.Fatalf("Duplicates = %d inconsistent with %d inserts / %d distinct",
			s.Duplicates(), s.Inserts(), s.Len())
	}
}

func TestQuickHashDeterministic(t *testing.T) {
	f := func(p []byte) bool { return Hash(p) == Hash(append([]byte(nil), p...)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDuplicateCountConsistent(t *testing.T) {
	f := func(payloads [][]byte) bool {
		s := New()
		for i, p := range payloads {
			s.Insert(bytesView(p), int64(i))
		}
		return s.Inserts() == int64(len(payloads)) &&
			s.Duplicates() == s.Inserts()-int64(s.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidDigest(t *testing.T) {
	cases := []struct {
		s  string
		ok bool
	}{
		{"", false},
		{"0123456789abcdef", true},               // abbreviated Key.String form
		{Hash([]byte("payload")).String(), true}, // real abbreviated digest
		{Hash([]byte("payload")).Hex(), true},    // full Key.Hex form
		{"0123456789ABCDEF", false},              // uppercase is never rendered
		{"0123456789abcde", false},               // wrong length
		{"0123456789abcdefg", false},             // wrong length + non-hex
		{"zzzz456789abcdef", false},              // non-hex at valid length
		{"payload-16-bytes", false},              // valid length, not hex
	}
	for _, c := range cases {
		if got := ValidDigest(c.s); got != c.ok {
			t.Errorf("ValidDigest(%q) = %v, want %v", c.s, got, c.ok)
		}
	}
}
