package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"

	"diogenes/internal/apps"
)

// ErrNotFound is returned by Store.Get for a key with no stored value.
var ErrNotFound = errors.New("experiments: key not found in store")

// Store is the persistence boundary behind the content-addressed cache
// keys: an opaque byte store whose keys are the digests CacheKey and
// SuiteKey produce. The in-memory ReportCache serves one engine lifetime;
// a Store lets results outlive the process (and be shared between
// processes) — the serving layer persists completed job documents here so
// an identical request never re-runs the pipeline.
//
// Implementations must be safe for concurrent use, including by multiple
// stores sharing one backing medium: Get on a key another instance just
// evicted must degrade to ErrNotFound, never a torn read.
type Store interface {
	// Get returns the stored bytes for key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Put stores val under key, replacing any previous value.
	Put(key string, val []byte) error
}

// ValidKey reports whether key has the shape this package's content
// addresses produce: non-empty lower-case hex of bounded length. Stores
// and provenance auditors use it to recognize (and refuse to fabricate)
// key-addressed artifacts — nothing that is not a content address may
// name one.
func ValidKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RunKey returns the content-addressed key identifying one engine pipeline
// run of the named application's original variant at the given scale —
// CacheKey under this engine's configuration. The second result is false
// when the configuration cannot be fingerprinted (unknown application, or
// a Factory carrying a Prepare hook).
func (e *Engine) RunKey(name string, scale float64) (string, bool) {
	spec, err := apps.ByName(name)
	if err != nil {
		return "", false
	}
	return CacheKey(name, scale, apps.Original, e.config(spec.Factory()))
}

// SuiteKey returns one content-addressed key covering an entire evaluation
// request: the kind ("run", "table1", "table2", "autofix", ...) plus the
// ordered per-application run keys of every application in scope. Empty
// names selects the full registry, mirroring the suites themselves. Two
// requests with equal suite keys produce byte-identical result documents,
// so a persistent Store may serve one request's stored output for the
// other. The second result is false when any application in scope cannot
// be fingerprinted.
func (e *Engine) SuiteKey(kind string, scale float64, names []string) (string, bool) {
	if len(names) == 0 {
		for _, spec := range apps.Registry() {
			names = append(names, spec.Name)
		}
	}
	h := sha256.New()
	writeLenPrefixed(h, []byte(kind))
	for _, name := range names {
		k, ok := e.RunKey(name, scale)
		if !ok {
			return "", false
		}
		writeLenPrefixed(h, []byte(name))
		writeLenPrefixed(h, []byte(k))
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// writeLenPrefixed writes one length-prefixed field so no two distinct
// field sequences share an encoding.
func writeLenPrefixed(h hash.Hash, b []byte) {
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
	h.Write(lenBuf[:])
	h.Write(b)
}
