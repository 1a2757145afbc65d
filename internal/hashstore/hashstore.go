// Package hashstore implements the content-based data-deduplication store
// used by stage 3 (§3.3.2): every transfer payload is hashed; a hash that
// was seen before marks the transfer as a duplicate, and the store remembers
// where the data was first transferred.
//
// Hashing is tiered so the simulated model cost (charged in virtual time by
// stage 3) does not also become a real host-time cost per payload:
//
//  1. a fixed-seed 64-bit prefilter hash routes the payload to a bucket;
//  2. duplicates are confirmed by byte comparison against the first-seen
//     payload's retained copy (its identity witness), which classifies
//     exactly like comparing sha256 digests would, so a duplicate never
//     pays for a sha256;
//  3. each distinct payload is hashed with sha256 once, when the store
//     first sees it. The witness is kept for the store's life, and the
//     short hex form is interned per distinct payload, never per record.
//
// The store is safe for concurrent use, so stage 3 can hash under the
// parallel engine's sched workers.
package hashstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sync"

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

// entry is the store's internal record of one distinct payload: a retained
// copy of its bytes, its sha256 digest and the interned short hex form.
type entry struct {
	next     *entry // bucket chain (prefilter collisions and distinct sizes)
	firstSeq int64
	count    int
	payload  []byte // retained witness bytes
	sum      Key    // sha256 digest
	hex8     string // interned short hex of sum
}

// Store maps payload contents to their first transfer. The zero value is
// not usable; call New. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	buckets  map[uint64]*entry
	distinct int
	// stats
	inserts    int64
	duplicates int64
	dupBytes   int64
	retained   int64 // bytes held as identity witnesses

	// Instrument pointers resolved by SetMetrics (nil-safe no-ops until
	// then).
	mPrefilterHits *obs.Counter
	mSha256Avoided *obs.Counter
	mSha256        *obs.Counter
	mRetained      *obs.Gauge
}

// New returns an empty store.
func New() *Store { return &Store{buckets: make(map[uint64]*entry)} }

// SetMetrics attaches self-measurement instruments: inserts whose prefilter
// bucket already held a candidate (hashstore/prefilter_hits), duplicate
// inserts classified without computing any sha256 (hashstore/sha256_avoided),
// sha256 digests computed, one per distinct payload
// (hashstore/sha256_computed), and the bytes retained as identity witnesses
// (hashstore/retained_bytes). A nil registry detaches.
func (s *Store) SetMetrics(m *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mPrefilterHits = m.Counter("hashstore/prefilter_hits")
	s.mSha256Avoided = m.Counter("hashstore/sha256_avoided")
	s.mSha256 = m.Counter("hashstore/sha256_computed")
	s.mRetained = m.Gauge("hashstore/retained_bytes")
}

// Insert records a transfer of payload p occurring at sequence seq. It
// returns whether the content is a duplicate, the sequence of the first
// transfer that carried it, and the abbreviated hex form of its sha256
// digest (Key.String of Hash(p)), one interned string per distinct
// payload. The duplicate classification is exactly the one plain sha256
// hashing would produce (FuzzHashTiers proves it): payloads compare equal
// iff their digests would.
func (s *Store) Insert(p []byte, seq int64) (dup bool, firstSeq int64, hash string) {
	h := prefilter64(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inserts++
	if s.buckets[h] != nil {
		s.mPrefilterHits.Inc()
	}
	for e := s.buckets[h]; e != nil; e = e.next {
		if bytes.Equal(e.payload, p) {
			e.count++
			s.duplicates++
			s.dupBytes += int64(len(p))
			s.mSha256Avoided.Inc()
			return true, e.firstSeq, e.hex8
		}
	}
	e := &entry{next: s.buckets[h], firstSeq: seq, count: 1, payload: bytes.Clone(p), sum: sha256.Sum256(p)}
	e.hex8 = e.sum.String()
	s.buckets[h] = e
	s.distinct++
	s.retained += int64(len(p))
	s.mSha256.Inc()
	s.mRetained.Set(float64(s.retained))
	return false, seq, e.hex8
}

// Lookup returns the entry for a content key, if any. It scans every
// entry, so it is intended for tests and post-run inspection, not the hot
// path.
func (s *Store) Lookup(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, chain := range s.buckets {
		for e := chain; e != nil; e = e.next {
			if e.sum == k {
				return Entry{FirstSeq: e.firstSeq, Bytes: len(e.payload), Count: e.count}, true
			}
		}
	}
	return Entry{}, false
}

// Len returns the number of distinct payloads seen.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.distinct
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

// RetainedBytes returns the bytes held as identity witnesses: one copy of
// every distinct payload.
func (s *Store) RetainedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained
}

// prefilter64 is the fixed-seed 64-bit prefilter hash (the XXH64 layout).
// It only routes payloads to buckets — classification never trusts it, so a
// collision costs one extra byte comparison, never a wrong answer.
const prefilterSeed uint64 = 0x9e3779b97f4a7c15

const (
	prime1 uint64 = 11400714785074694791
	prime2 uint64 = 14029467366897019727
	prime3 uint64 = 1609587929392839161
	prime4 uint64 = 9650029242287828579
	prime5 uint64 = 2870177450012600261
)

func prefilter64(p []byte) uint64 {
	n := uint64(len(p))
	var h uint64
	seed := prefilterSeed
	if len(p) >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(p) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(p[24:32]))
			p = p[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += n
	for len(p) >= 8 {
		h ^= round(0, binary.LittleEndian.Uint64(p[:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
		p = p[8:]
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p[:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, in uint64) uint64 {
	acc += in * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

func mergeRound(h, v uint64) uint64 {
	h ^= round(0, v)
	return h*prime1 + prime4
}
