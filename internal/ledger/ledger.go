// Package ledger is the provenance layer behind the report store: an
// append-only, tamper-evident log of report digests with Merkle batching
// and stateless inclusion proofs.
//
// Diogenes' thesis is honesty in measurement — and a cached answer served
// months after it was produced is only as honest as the store it slept
// in. The content-addressed store says *what* a report claims; the ledger
// lets anyone check *that it was never altered after production*. Every
// persisted report appends one entry (its store key — the content address
// of the pipeline inputs that produced it — plus the sha256 of the
// persisted bytes). Entries seal into batches, each batch committing a
// Merkle root, and each root chains over the previous one, so the head
// commitment pins the entire history. A served report can then carry an
// inclusion proof that verifies against the head with no access to the
// ledger at all, and `diogenes verify-ledger` re-hashes every resident
// report against the chain.
//
// The on-disk format is line-oriented JSON, one entry per line, append
// only. A crash mid-append leaves a partial final line, which is
// detectable as *truncation* (and repaired on reopen) — distinct from a
// flipped byte anywhere in the interior, which breaks the hash chain and
// is reported as *tampering*. What the chain cannot detect is silent
// removal of whole sealed batches from the tail; guarding against that
// requires pinning a previously observed head externally, which is what
// publishing GET /ledger/root is for.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"diogenes/internal/obs"
)

// Defaults for the batching knobs.
const (
	// DefaultBatchSize seals a batch every 64 appends; 1 is the "direct"
	// mode that seals (and syncs) every append.
	DefaultBatchSize = 64
	// DefaultFlushInterval bounds how long an appended entry may wait
	// unsealed when traffic is slow.
	DefaultFlushInterval = 2 * time.Second
)

// Sentinel errors.
var (
	// ErrLocked reports that another live process (or another Ledger in
	// this one) holds the ledger file. The ledger is single-writer; a
	// second opener should degrade to running without one.
	ErrLocked = errors.New("ledger: file is locked by another instance")
	// ErrClosed reports an operation on a closed ledger.
	ErrClosed = errors.New("ledger: closed")
	// ErrCorrupt reports a structurally broken ledger file: the hash
	// chain, a batch root, or the entry sequence does not replay. Open
	// refuses a corrupt ledger — honesty demands the operator look.
	ErrCorrupt = errors.New("ledger: corrupt")
)

// Config configures Open.
type Config struct {
	// Path is the ledger file; created if absent.
	Path string
	// BatchSize is the number of appends per sealed batch. 1 seals every
	// append (direct mode); 0 selects DefaultBatchSize.
	BatchSize int
	// FlushInterval bounds how long an entry may wait in the open batch
	// before a timer seals it. 0 selects DefaultFlushInterval; negative
	// disables the timer (batches seal only by size or on Close).
	FlushInterval time.Duration
	// Metrics, when non-nil, receives the ledger's self-measurement:
	// ledger/appends, ledger/seals, ledger/proofs counters and the
	// ledger/seal_ns flush-latency histogram.
	Metrics *obs.Registry
}

// leafRec is one appended entry.
type leafRec struct {
	seq    uint64
	key    string
	digest [32]byte
}

// Ledger is an open, exclusively held ledger file. All methods are safe
// for concurrent use. The full entry set is kept in memory (36 bytes plus
// key per entry) so proofs need no file reads; at millions of entries
// that is tens of megabytes, the price of instant proof generation.
type Ledger struct {
	mu         sync.Mutex
	f          *os.File
	size       int64 // current file length, for append rollback
	batchSize  int
	flushEvery time.Duration

	seq       uint64     // last assigned sequence number
	sealedSeq uint64     // last sequence covered by a sealed batch
	chain     [32]byte   // head commitment over sealed roots
	roots     [][32]byte // sealed batch roots, in order
	chains    [][32]byte // chain value after each sealed batch
	starts    []uint64   // first sequence of each sealed batch
	leaves    []leafRec  // every entry, index seq-1
	latest    map[string]uint64
	open      []leafRec // entries awaiting seal

	timer  *time.Timer
	closed bool

	mAppends *obs.Counter
	mSeals   *obs.Counter
	mProofs  *obs.Counter
	hSealNs  *obs.Histogram
	gUnseal  *obs.Gauge
}

// Open opens (creating if needed) the ledger at cfg.Path, takes the
// single-writer lock, and replays the file. A partial final line — the
// signature of a crash mid-append — is discarded and the file truncated
// back to the last complete entry, so the daemon reopens cleanly after a
// crash. Any interior inconsistency returns ErrCorrupt: a ledger that
// does not replay must not silently keep growing.
func Open(cfg Config) (*Ledger, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("ledger: path must be non-empty")
	}
	batch := cfg.BatchSize
	if batch == 0 {
		batch = DefaultBatchSize
	}
	if batch < 1 {
		return nil, fmt.Errorf("ledger: batch size %d, need at least 1", cfg.BatchSize)
	}
	flush := cfg.FlushInterval
	if flush == 0 {
		flush = DefaultFlushInterval
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	data, err := io.ReadAll(bufio.NewReader(f))
	if err != nil {
		unlockFile(f)
		f.Close()
		return nil, fmt.Errorf("ledger: read: %w", err)
	}
	st, goodLen, _, problem := replay(data)
	if problem != "" {
		unlockFile(f)
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, problem)
	}
	if goodLen < len(data) {
		// Crash leftover: drop the partial tail so new appends start at
		// an entry boundary.
		if err := f.Truncate(int64(goodLen)); err != nil {
			unlockFile(f)
			f.Close()
			return nil, fmt.Errorf("ledger: repair truncated tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		unlockFile(f)
		f.Close()
		return nil, fmt.Errorf("ledger: seek: %w", err)
	}
	l := &Ledger{
		f:          f,
		size:       int64(goodLen),
		batchSize:  batch,
		flushEvery: flush,
		seq:        st.seq,
		sealedSeq:  st.sealedSeq,
		chain:      st.chain,
		roots:      st.roots,
		chains:     st.chains,
		starts:     st.starts,
		leaves:     st.leaves,
		latest:     st.latest,
		open:       st.open,
	}
	if m := cfg.Metrics; m != nil {
		l.mAppends = m.Counter("ledger/appends")
		l.mSeals = m.Counter("ledger/seals")
		l.mProofs = m.Counter("ledger/proofs")
		l.hSealNs = m.Histogram("ledger/seal_ns")
		l.gUnseal = m.Gauge("ledger/unsealed")
	}
	l.gUnseal.Set(float64(len(l.open)))
	if len(l.open) > 0 {
		l.armTimerLocked()
	}
	return l, nil
}

// Append records one persisted report: key is its content-addressed store
// key, val the exact bytes written to the store. It returns the entry's
// sequence number. The entry is on disk (though possibly unsealed) when
// Append returns; the batch seals — committing a root, chaining it over
// the previous one, and syncing the file — once BatchSize entries
// accumulate, the flush timer fires, or Close is called.
func (l *Ledger) Append(key string, val []byte) (uint64, error) {
	digest := sha256.Sum256(val)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec := leafRec{seq: l.seq + 1, key: key, digest: digest}
	line, err := json.Marshal(lineRec{
		V: 1, Op: opLeaf, Seq: rec.seq, Key: key,
		Digest: hex.EncodeToString(digest[:]),
	})
	if err != nil {
		return 0, err
	}
	if err := l.writeLineLocked(line); err != nil {
		return 0, err
	}
	l.seq = rec.seq
	l.leaves = append(l.leaves, rec)
	l.latest[key] = rec.seq
	l.open = append(l.open, rec)
	l.mAppends.Inc()
	l.gUnseal.Set(float64(len(l.open)))
	if len(l.open) >= l.batchSize {
		if err := l.sealLocked(); err != nil {
			return 0, err
		}
	} else {
		l.armTimerLocked()
	}
	return rec.seq, nil
}

// writeLineLocked appends one entry line in a single write, rolling the
// file back to the previous entry boundary if the write fails partway.
func (l *Ledger) writeLineLocked(line []byte) error {
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	n, err := l.f.Write(buf)
	if err != nil {
		if n > 0 {
			_ = l.f.Truncate(l.size)
			_, _ = l.f.Seek(l.size, io.SeekStart)
		}
		return fmt.Errorf("ledger: append: %w", err)
	}
	l.size += int64(n)
	return nil
}

// Seal seals the open batch, if any: computes its Merkle root, chains it
// over the previous head, writes the seal entry, and syncs the file.
func (l *Ledger) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.sealLocked()
}

func (l *Ledger) sealLocked() error {
	if len(l.open) == 0 {
		return nil
	}
	started := time.Now()
	hs := make([][32]byte, len(l.open))
	for i, rec := range l.open {
		hs[i] = leafHash(rec.seq, rec.key, rec.digest)
	}
	root := merkleRoot(hs)
	chain := chainStep(l.chain, root)
	line, err := json.Marshal(lineRec{
		V: 1, Op: opSeal, Seq: l.seq, Batch: uint64(len(l.roots)) + 1,
		Count: len(l.open), Root: hex.EncodeToString(root[:]),
		Chain: hex.EncodeToString(chain[:]),
	})
	if err != nil {
		return err
	}
	if err := l.writeLineLocked(line); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: sync: %w", err)
	}
	l.starts = append(l.starts, l.open[0].seq)
	l.roots = append(l.roots, root)
	l.chains = append(l.chains, chain)
	l.chain = chain
	l.sealedSeq = l.seq
	l.open = nil
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.mSeals.Inc()
	l.hSealNs.Observe(time.Since(started).Nanoseconds())
	l.gUnseal.Set(0)
	return nil
}

// armTimerLocked starts the flush timer for the open batch if one is
// configured and not already pending.
func (l *Ledger) armTimerLocked() {
	if l.flushEvery <= 0 || l.timer != nil {
		return
	}
	l.timer = time.AfterFunc(l.flushEvery, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.timer = nil
		if !l.closed {
			_ = l.sealLocked()
		}
	})
}

// Head is the ledger's publishable state: the chained commitment over
// every sealed batch plus how much is still unsealed. Chain is what
// stateless proof verification anchors to.
type Head struct {
	// Seq is the last appended entry's sequence number.
	Seq uint64 `json:"seq"`
	// Batches counts sealed batches.
	Batches uint64 `json:"batches"`
	// Root is the most recently sealed batch's Merkle root ("" before
	// the first seal).
	Root string `json:"root,omitempty"`
	// Chain is the head commitment: genesis hashed over every sealed
	// root in order.
	Chain string `json:"chain"`
	// Unsealed counts entries appended but not yet sealed — the open
	// batch depth an operator alerts on when appends stall.
	Unsealed int `json:"unsealed"`
}

// Head snapshots the current head.
func (l *Ledger) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headLocked()
}

func (l *Ledger) headLocked() Head {
	h := Head{
		Seq:      l.seq,
		Batches:  uint64(len(l.roots)),
		Chain:    hex.EncodeToString(l.chain[:]),
		Unsealed: len(l.open),
	}
	if n := len(l.roots); n > 0 {
		h.Root = hex.EncodeToString(l.roots[n-1][:])
	}
	return h
}

// SeqFor returns the sequence number of the latest entry appended for
// key, if any.
func (l *Ledger) SeqFor(key string) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.latest[key]
	return seq, ok
}

// Prove generates the inclusion proof for entry seq together with the
// head it verifies against, atomically — the proof's chain walk ends
// exactly at the returned head. Proving an entry still in the open batch
// seals the batch first (a proof needs a committed root), so proof
// generation trades one early seal for statelessness.
func (l *Ledger) Prove(seq uint64) (*Proof, Head, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, Head{}, ErrClosed
	}
	if seq == 0 || seq > l.seq {
		return nil, Head{}, fmt.Errorf("ledger: no entry %d (head is %d)", seq, l.seq)
	}
	if seq > l.sealedSeq {
		if err := l.sealLocked(); err != nil {
			return nil, Head{}, err
		}
	}
	// Locate the batch: the last start not exceeding seq.
	b := sort.Search(len(l.starts), func(i int) bool { return l.starts[i] > seq }) - 1
	start := l.starts[b]
	var end uint64 = l.seq
	if b+1 < len(l.starts) {
		end = l.starts[b+1] - 1
	} else {
		end = l.sealedSeq
	}
	count := int(end - start + 1)
	hs := make([][32]byte, count)
	for i := 0; i < count; i++ {
		rec := l.leaves[int(start)-1+i]
		hs[i] = leafHash(rec.seq, rec.key, rec.digest)
	}
	idx := int(seq - start)
	rec := l.leaves[seq-1]
	prev := genesis()
	if b > 0 {
		prev = l.chains[b-1]
	}
	p := &Proof{
		Seq:       seq,
		Key:       rec.key,
		Digest:    hex.EncodeToString(rec.digest[:]),
		Batch:     uint64(b) + 1,
		Index:     idx,
		Count:     count,
		Root:      hex.EncodeToString(l.roots[b][:]),
		PrevChain: hex.EncodeToString(prev[:]),
	}
	for _, s := range merklePath(hs, idx) {
		p.Siblings = append(p.Siblings, hex.EncodeToString(s[:]))
	}
	for _, r := range l.roots[b+1:] {
		p.LaterRoots = append(p.LaterRoots, hex.EncodeToString(r[:]))
	}
	l.mProofs.Inc()
	return p, l.headLocked(), nil
}

// Close seals the open batch, syncs, releases the single-writer lock and
// closes the file. Further operations return ErrClosed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	err := l.sealLocked()
	unlockFile(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
