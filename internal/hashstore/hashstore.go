// Package hashstore implements the content-based data-deduplication store
// used by stage 3 (§3.3.2): every transfer payload is hashed; a hash that
// was seen before marks the transfer as a duplicate, and the store remembers
// where the data was first transferred.
//
// Every payload is classified by its sha256 digest, and the store keeps
// digests only, never payload bytes. A payload arrives as a memory.View,
// which lets two memos stand in for a sha256 the view's bytes could not
// change:
//
//   - a uniform payload (every byte one value) is hashed once per distinct
//     (fill, length), without reading simulated memory at all;
//   - a dense payload reuses the digest last computed for the same
//     (source, offset, length) when the source's content version is still
//     the one hashed, since equal versions mean equal bytes.
//
// Any other payload is hashed with sha256. The short hex form is interned
// per distinct payload, never per record.
//
// The store is safe for concurrent use, so stage 3 can hash under the
// parallel engine's sched workers.
package hashstore

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"diogenes/internal/memory"
	"diogenes/internal/obs"
)

// Key is a content hash of a transfer payload.
type Key [sha256.Size]byte

// Hash computes the content key of a payload.
func Hash(p []byte) Key { return sha256.Sum256(p) }

// String returns the abbreviated hex form used in reports.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// Hex returns the full hex digest.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ValidDigest reports whether s looks like a payload digest as trace
// records render them: the abbreviated form (Key.String, 16 lowercase hex
// characters) or the full form (Key.Hex, 64). Fleet aggregation keys
// cross-rank duplicate findings on these strings and must skip records
// that carry no digest (no payload was captured) or a malformed one.
func ValidDigest(s string) bool {
	if len(s) != 16 && len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Entry records the first sighting of a payload.
type Entry struct {
	FirstSeq int64 // sequence number of the first transfer of this content
	Bytes    int   // payload size
	Count    int   // total transfers with this content, including the first
}

// entry is the store's internal record of one distinct payload.
type entry struct {
	firstSeq int64
	size     int
	count    int
	hex8     string // interned short hex of the digest
}

// uniformKey names a uniform payload: its length and its one byte value.
type uniformKey struct {
	fill byte
	n    int
}

// denseKey names where a dense payload was read from.
type denseKey struct {
	src    any
	off, n int
}

// denseMemo is the entry of the last payload hashed at a denseKey, and the
// source's content version it was read at.
type denseMemo struct {
	version uint64
	e       *entry
}

// Store maps payload contents to their first transfer. The zero value is
// not usable; call New. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*entry
	uniform map[uniformKey]*entry
	dense   map[denseKey]denseMemo
	// stats
	inserts    int64
	duplicates int64
	dupBytes   int64

	// Instrument pointers resolved by SetMetrics (nil-safe no-ops until
	// then).
	mSha256Avoided *obs.Counter
	mSha256        *obs.Counter
}

// New returns an empty store.
func New() *Store {
	return &Store{
		entries: make(map[Key]*entry),
		uniform: make(map[uniformKey]*entry),
		dense:   make(map[denseKey]denseMemo),
	}
}

// SetMetrics attaches self-measurement instruments: sha256 computations
// (hashstore/sha256_computed) and inserts whose digest came from a memo
// instead (hashstore/sha256_avoided). A nil registry detaches.
func (s *Store) SetMetrics(m *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mSha256Avoided = m.Counter("hashstore/sha256_avoided")
	s.mSha256 = m.Counter("hashstore/sha256_computed")
}

// Insert records a transfer of payload v occurring at sequence seq. It
// returns whether the content is a duplicate, the sequence of the first
// transfer that carried it, and the abbreviated hex form of its sha256
// digest (Key.String of Hash over v's bytes), one interned string per
// distinct payload. The classification is exactly the one hashing every
// payload with sha256 would produce (FuzzHashTiers proves it). v's bytes
// are read, if at all, before Insert returns.
func (s *Store) Insert(v memory.View, seq int64) (dup bool, firstSeq int64, hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inserts++
	e := s.memo(v)
	if e != nil {
		s.mSha256Avoided.Inc()
	} else {
		s.mSha256.Inc()
		sum := digest(v)
		if e = s.entries[sum]; e == nil {
			e = &entry{firstSeq: seq, size: v.Len, hex8: sum.String()}
			s.entries[sum] = e
		}
		if v.Uniform() {
			s.uniform[uniformKey{v.Fill, v.Len}] = e
		} else {
			s.dense[denseKey{v.Src, v.Off, v.Len}] = denseMemo{v.Version, e}
		}
	}
	e.count++
	if e.count == 1 {
		return false, seq, e.hex8
	}
	s.duplicates++
	s.dupBytes += int64(v.Len)
	return true, e.firstSeq, e.hex8
}

// memo returns the entry a memo holds for v's bytes, or nil.
func (s *Store) memo(v memory.View) *entry {
	if v.Uniform() {
		return s.uniform[uniformKey{v.Fill, v.Len}]
	}
	if m, ok := s.dense[denseKey{v.Src, v.Off, v.Len}]; ok && m.version == v.Version {
		return m.e
	}
	return nil
}

// digest computes the sha256 of v's bytes. A uniform view is hashed from a
// block of its fill byte, so its length costs no memory.
func digest(v memory.View) Key {
	if !v.Uniform() {
		return sha256.Sum256(v.Data)
	}
	var block [4096]byte
	if v.Fill != 0 {
		for i := range block {
			block[i] = v.Fill
		}
	}
	h := sha256.New()
	for n := v.Len; n > 0; n -= len(block) {
		h.Write(block[:min(n, len(block))])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Lookup returns the entry for a content key, if any.
func (s *Store) Lookup(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return Entry{}, false
	}
	return Entry{FirstSeq: e.firstSeq, Bytes: e.size, Count: e.count}, true
}

// Len returns the number of distinct payloads seen.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Inserts returns the total number of Insert calls.
func (s *Store) Inserts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inserts
}

// Duplicates returns the number of duplicate transfers detected.
func (s *Store) Duplicates() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// DuplicateBytes returns the total bytes carried by duplicate transfers.
func (s *Store) DuplicateBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dupBytes
}
