// Package memory models the CPU-side address space of the simulated process.
//
// Two of Diogenes' collection stages depend on capabilities that Dyninst
// provides against a real process image: stage 3 records which CPU memory
// ranges may be written by the GPU (the targets of device-to-host transfers
// and shared allocations) and then uses load/store instrumentation to find
// the first instruction that touches those ranges after a synchronization;
// the cumf_als fix validation additionally write-protects pages with
// mprotect to prove a removed transfer's source is never modified.
//
// Space reproduces those capabilities: it allocates labelled regions in a
// flat virtual address space, dispatches instrumented Load/Store accesses to
// range watchers, and supports an mprotect-style write protection flag.
//
// A space built by NewSpace keeps its regions' contents, so stage 3 can
// hash transfer payloads. Contents are lazy: a region holds no bytes while
// every byte has one value (fresh from Alloc, or after a Fill of the whole
// region), and materialises them on its first write or partial fill.
// Reads see the same bytes either way. Every write bumps the region's
// content version and no read does, so a View of a dense range names its
// bytes by (region, offset, length, version) without copying them.
//
// A space built by NewTimingSpace keeps no contents at all, for runs whose
// consumers read only addresses, sizes and virtual time. It checks every
// access exactly as a content space does (range, protection, use after
// free, watchers), then skips the copy or fill. Peek fails with
// ErrNoContent instead of inventing bytes.
package memory

import (
	"errors"
	"fmt"
	"sort"
)

// Addr is a virtual address in the simulated process.
type Addr uint64

// PageSize is the simulated page granularity used by Protect, mirroring the
// 64 KiB pages of the POWER8/9 systems the prototype ran on.
const PageSize = 64 * 1024

// AccessKind distinguishes instrumented loads from stores.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Site identifies the instruction performing an access: the enclosing
// function plus source coordinates. Stage 3 stores the Site of the first
// instruction touching GPU-writable data, and stage 4 re-instruments exactly
// those Sites.
type Site struct {
	Function string
	File     string
	Line     int
}

// String renders the site as function (file:line).
func (s Site) String() string {
	if s == (Site{}) {
		return "<unknown>"
	}
	return fmt.Sprintf("%s (%s:%d)", s.Function, s.File, s.Line)
}

// Access describes one instrumented memory access.
type Access struct {
	Kind AccessKind
	Addr Addr
	Size int
	Site Site
}

// Region is an allocated range of the address space.
type Region struct {
	base      Addr
	size      int
	label     string
	data      []byte // nil while every byte equals fill
	fill      byte
	version   uint64 // bumped by every write of the contents
	protected bool
	freed     bool
}

// View is a read of n bytes of simulated memory, host or device, that
// neither copies nor materialises them. A uniform range is described by its
// fill byte alone (Data nil). A dense range aliases the live bytes, named by
// their source allocation, offset and the source's content version: two
// views with equal (Src, Off, Len, Version) hold equal bytes.
//
// Data is read-only and valid only until the source's next write or free.
// The zero View is the read of a memory that keeps no contents.
type View struct {
	Src     any    // the allocation read (*Region, *gpu.DevBuf); nil for no contents
	Off     int    // offset of the range within Src
	Len     int    // length of the range
	Fill    byte   // every byte's value when Data is nil
	Data    []byte // the bytes, aliasing Src's backing; nil while uniform
	Version uint64 // Src's content version when read; meaningful with Data
}

// Uniform reports whether every byte of the view equals Fill.
func (v View) Uniform() bool { return v.Data == nil }

// ViewOf returns the view of n bytes at off of a lazy backing (data nil
// while every byte equals fill) belonging to src.
func ViewOf(src any, data []byte, fill byte, version uint64, off, n int) View {
	v := View{Src: src, Off: off, Len: n, Fill: fill}
	if data != nil {
		v.Data, v.Version = data[off:off+n:off+n], version
	}
	return v
}

// dense materialises r and returns its backing bytes.
func (r *Region) dense() []byte {
	if r.data == nil {
		r.data = make([]byte, r.size)
		fillBytes(r.data, r.fill)
	}
	return r.data
}

// write copies p to off, materialising r, and bumps its version.
func (r *Region) write(off int, p []byte) {
	if len(p) == 0 {
		return
	}
	copy(r.dense()[off:], p)
	r.version++
}

// read returns a copy of the n bytes at off.
func (r *Region) read(off, n int) []byte {
	out := make([]byte, n)
	if r.data == nil {
		fillBytes(out, r.fill)
	} else {
		copy(out, r.data[off:off+n])
	}
	return out
}

func fillBytes(p []byte, v byte) {
	if v == 0 {
		clear(p)
		return
	}
	for i := range p {
		p[i] = v
	}
}

// Base returns the first address of the region.
func (r *Region) Base() Addr { return r.base }

// Size returns the region length in bytes.
func (r *Region) Size() int { return r.size }

// Label returns the allocation label supplied to Alloc.
func (r *Region) Label() string { return r.label }

// End returns one past the last address of the region.
func (r *Region) End() Addr { return r.base + Addr(r.size) }

// Freed reports whether the region has been released.
func (r *Region) Freed() bool { return r.freed }

// Protected reports whether stores to the region are currently rejected.
func (r *Region) Protected() bool { return r.protected }

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool {
	return addr >= r.base && addr < r.End()
}

// Errors returned by Space operations.
var (
	ErrOutOfRange   = errors.New("memory: access outside any live region")
	ErrProtected    = errors.New("memory: store to write-protected region")
	ErrUseAfterFree = errors.New("memory: access to freed region")
	// ErrNoContent reports a byte read from a space that keeps no
	// contents (NewTimingSpace). Range errors take precedence over it.
	ErrNoContent = errors.New("memory: contents not simulated")
)

// WatchID identifies a registered range watcher.
type WatchID int

// WatchFunc receives each instrumented access that overlaps the watched
// range. It corresponds to the analysis snippet Diogenes attaches to load and
// store instructions.
type WatchFunc func(Access)

type watch struct {
	id WatchID
	lo Addr
	hi Addr // exclusive
	fn WatchFunc
}

// Space is a flat simulated address space. It is not safe for concurrent
// use; the simulated process has a single application thread, matching the
// CPU-side behaviour Diogenes instruments.
type Space struct {
	// timing marks a space that keeps no contents (NewTimingSpace).
	timing  bool
	next    Addr
	regions []*Region // sorted by base
	watches []watch
	nextID  WatchID

	// counters for tests and overhead accounting
	loads  int64
	stores int64
}

// NewSpace returns an empty address space. Address zero is never allocated
// so that the zero Addr can act as a null pointer.
func NewSpace() *Space {
	return &Space{next: PageSize}
}

// NewTimingSpace returns an empty address space that keeps no contents:
// every access is checked and reported as in NewSpace, but no byte is
// stored, and reads of bytes fail with ErrNoContent.
func NewTimingSpace() *Space {
	return &Space{timing: true, next: PageSize}
}

// Content reports whether the space keeps its regions' contents.
func (s *Space) Content() bool { return !s.timing }

// Loads returns the number of instrumented load accesses performed.
func (s *Space) Loads() int64 { return s.loads }

// Stores returns the number of instrumented store accesses performed.
func (s *Space) Stores() int64 { return s.stores }

// Alloc reserves size bytes and returns the new region. Allocations are
// page-aligned, matching the paper's page-aligned allocation of variables
// that will later be mprotect-guarded.
func (s *Space) Alloc(size int, label string) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("memory: Alloc size %d", size))
	}
	base := s.next
	r := &Region{base: base, size: size, label: label}
	s.next = roundUp(base+Addr(size), PageSize)
	s.regions = append(s.regions, r)
	return r
}

func roundUp(a Addr, align Addr) Addr {
	return (a + align - 1) / align * align
}

// Free releases a region. Accesses to it afterwards fail with
// ErrUseAfterFree. The region list keeps the entry so diagnostics can name
// the stale label.
func (s *Space) Free(r *Region) {
	if r.freed {
		panic(fmt.Sprintf("memory: double free of %q", r.label))
	}
	r.freed = true
	r.data = nil
}

// Protect write-protects the region (mprotect(PROT_READ) analog). Subsequent
// Store calls fail with ErrProtected; Poke (DMA) writes also fail, because
// hardware writes to protected pages fault as well.
func (s *Space) Protect(r *Region) { r.protected = true }

// Unprotect removes write protection.
func (s *Space) Unprotect(r *Region) { r.protected = false }

// RegionAt returns the live region containing addr, or nil.
func (s *Space) RegionAt(addr Addr) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].End() > addr
	})
	if i < len(s.regions) && s.regions[i].Contains(addr) && !s.regions[i].freed {
		return s.regions[i]
	}
	return nil
}

// Watch registers fn for every instrumented access overlapping [lo, hi).
// It returns an id for Unwatch. Watches model the load/store instrumentation
// stage 3 inserts for GPU-writable ranges; they observe only instrumented
// application accesses (Load/Store), not driver DMA (Peek/Poke), exactly as
// binary instrumentation of CPU code would.
func (s *Space) Watch(lo, hi Addr, fn WatchFunc) WatchID {
	if hi <= lo {
		panic(fmt.Sprintf("memory: Watch empty range [%d,%d)", lo, hi))
	}
	s.nextID++
	s.watches = append(s.watches, watch{id: s.nextID, lo: lo, hi: hi, fn: fn})
	return s.nextID
}

// Unwatch removes a watcher registered with Watch. Removing an unknown id is
// a no-op, so teardown code can be unconditional.
func (s *Space) Unwatch(id WatchID) {
	for i := range s.watches {
		if s.watches[i].id == id {
			s.watches = append(s.watches[:i], s.watches[i+1:]...)
			return
		}
	}
}

// WatchCount returns the number of active watches (used by overhead models:
// each armed watch adds per-access cost).
func (s *Space) WatchCount() int { return len(s.watches) }

func (s *Space) dispatch(a Access) {
	end := a.Addr + Addr(a.Size)
	for _, w := range s.watches {
		if a.Addr < w.hi && end > w.lo {
			w.fn(a)
		}
	}
}

// Load performs an instrumented read of n bytes at addr from site. The
// returned slice is a copy; a timing-only space returns nil, since the
// access, not the bytes, is what its consumers observe.
func (s *Space) Load(site Site, addr Addr, n int) ([]byte, error) {
	r := s.RegionAt(addr)
	if r == nil {
		if stale := s.staleRegionAt(addr); stale != nil {
			return nil, fmt.Errorf("%w: %q at %#x", ErrUseAfterFree, stale.label, addr)
		}
		return nil, fmt.Errorf("%w: load %#x", ErrOutOfRange, addr)
	}
	if addr+Addr(n) > r.End() {
		return nil, fmt.Errorf("%w: load [%#x,%#x) past end of %q", ErrOutOfRange, addr, addr+Addr(n), r.label)
	}
	s.loads++
	s.dispatch(Access{Kind: Load, Addr: addr, Size: n, Site: site})
	if s.timing {
		return nil, nil
	}
	return r.read(int(addr-r.base), n), nil
}

// Store performs an instrumented write of p at addr from site.
func (s *Space) Store(site Site, addr Addr, p []byte) error {
	r := s.RegionAt(addr)
	if r == nil {
		if stale := s.staleRegionAt(addr); stale != nil {
			return fmt.Errorf("%w: %q at %#x", ErrUseAfterFree, stale.label, addr)
		}
		return fmt.Errorf("%w: store %#x", ErrOutOfRange, addr)
	}
	if addr+Addr(len(p)) > r.End() {
		return fmt.Errorf("%w: store [%#x,%#x) past end of %q", ErrOutOfRange, addr, addr+Addr(len(p)), r.label)
	}
	if r.protected {
		return fmt.Errorf("%w: %q at %#x", ErrProtected, r.label, addr)
	}
	s.stores++
	s.dispatch(Access{Kind: Store, Addr: addr, Size: len(p), Site: site})
	if !s.timing {
		r.write(int(addr-r.base), p)
	}
	return nil
}

// Peek reads n bytes at addr without generating an access event: the read
// path of tests and result checksums. A timing-only space fails it with
// ErrNoContent once the range checks pass.
func (s *Space) Peek(addr Addr, n int) ([]byte, error) {
	r, err := s.peekRegion(addr, n)
	if err != nil {
		return nil, err
	}
	if s.timing {
		return nil, fmt.Errorf("%w: peek %#x", ErrNoContent, addr)
	}
	return r.read(int(addr-r.base), n), nil
}

// View is Peek without the copy, and without materialising a uniform
// region: the driver's transfers read their source through it, so landing
// and hashing a payload allocates nothing. It fails as Peek does; a
// timing-only space checks the range and returns the zero View.
func (s *Space) View(addr Addr, n int) (View, error) {
	r, err := s.peekRegion(addr, n)
	if err != nil || s.timing {
		return View{}, err
	}
	return ViewOf(r, r.data, r.fill, r.version, int(addr-r.base), n), nil
}

// peekRegion returns the live region holding [addr, addr+n), or the error
// a DMA read of that range fails with.
func (s *Space) peekRegion(addr Addr, n int) (*Region, error) {
	r := s.RegionAt(addr)
	if r == nil {
		return nil, fmt.Errorf("%w: peek %#x", ErrOutOfRange, addr)
	}
	if addr+Addr(n) > r.End() {
		return nil, fmt.Errorf("%w: peek past end of %q", ErrOutOfRange, r.label)
	}
	return r, nil
}

// Poke writes p at addr without generating an access event (DMA write path,
// e.g. a device-to-host transfer landing). Protected pages still fault. A
// timing-only space checks the write and copies nothing.
func (s *Space) Poke(addr Addr, p []byte) error {
	r, err := s.pokeRegion(addr, len(p))
	if err != nil || s.timing {
		return err
	}
	r.write(int(addr-r.base), p)
	return nil
}

// PokeN is the landing of n bytes the caller does not have: it fails
// exactly as a Poke of n bytes would and writes nothing. The driver's
// transfers use it in timing-only processes, which carry no payload.
func (s *Space) PokeN(addr Addr, n int) error {
	_, err := s.pokeRegion(addr, n)
	return err
}

// pokeRegion returns the live, writable region holding [addr, addr+n), or
// the error a DMA write of that range fails with.
func (s *Space) pokeRegion(addr Addr, n int) (*Region, error) {
	r := s.RegionAt(addr)
	if r == nil {
		return nil, fmt.Errorf("%w: poke %#x", ErrOutOfRange, addr)
	}
	if addr+Addr(n) > r.End() {
		return nil, fmt.Errorf("%w: poke past end of %q", ErrOutOfRange, r.label)
	}
	if r.protected {
		return nil, fmt.Errorf("%w: %q at %#x", ErrProtected, r.label, addr)
	}
	return r, nil
}

// Fill sets n bytes at addr to v without generating an access event (the
// DMA path of a memset). It fails exactly as a Poke of n bytes would. A fill
// of the whole region drops its backing, so it is O(1). A timing-only space
// checks the fill and stores nothing.
func (s *Space) Fill(addr Addr, v byte, n int) error {
	r := s.RegionAt(addr)
	if r == nil {
		return fmt.Errorf("%w: fill %#x", ErrOutOfRange, addr)
	}
	if n < 0 || addr+Addr(n) > r.End() {
		return fmt.Errorf("%w: fill past end of %q", ErrOutOfRange, r.label)
	}
	if r.protected {
		return fmt.Errorf("%w: %q at %#x", ErrProtected, r.label, addr)
	}
	if n == 0 || s.timing {
		return nil
	}
	r.version++
	if addr == r.base && n == r.size {
		r.data, r.fill = nil, v
		return nil
	}
	off := int(addr - r.base)
	fillBytes(r.dense()[off:off+n], v)
	return nil
}

func (s *Space) staleRegionAt(addr Addr) *Region {
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].End() > addr
	})
	if i < len(s.regions) && s.regions[i].Contains(addr) && s.regions[i].freed {
		return s.regions[i]
	}
	return nil
}
