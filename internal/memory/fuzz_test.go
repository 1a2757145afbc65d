package memory

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// Operations decoded by FuzzLazySpace. Each consumes the argument bytes
// listed beside it; a region argument picks among the allocations so far.
const (
	spAlloc     = iota // size
	spStore            // region, off, n, then n payload bytes
	spPoke             // region, off, n, then n payload bytes
	spFillWhole        // region, v
	spFillPart         // region, off, n, v
	spLoad             // region, off, n
	spPeek             // region, off, n
	spView             // region, off, n
	spProtect          // region (toggles write protection)
	spFree             // region
	spOps
)

// shadowRegion is the dense model a Region must agree with. tr is the
// region's twin in the timing-only space. seen holds the shadow bytes last
// observed at each content version of r.
type shadowRegion struct {
	r, tr     *Region
	data      []byte
	protected bool
	freed     bool
	seen      map[uint64][]byte
}

// FuzzLazySpace runs a decoded sequence of address-space operations against
// the lazy Region and against a plain []byte per region. Every read and view
// must equal the shadow bytes; every operation must fail with the error the
// shadow predicts (out of range, use after free, protected); and watchers
// must see exactly the successful Load and Store calls.
//
// Content versions must name contents: every successful Store, Poke or Fill
// of at least one byte bumps the region's version, nothing else does, and
// a region holds the same bytes whenever it is at a version seen before. A
// View must not materialise a uniform region, and a dense View carries the
// region's current version.
//
// Each sequence is replayed on a timing-only twin as well (NewTimingSpace,
// with writes landing through PokeN as the driver's do). Every operation
// must succeed or fail there with the same error as on the content space,
// its watchers must see the same accesses, and byte reads must fail with
// ErrNoContent exactly where the content space returns bytes.
func FuzzLazySpace(f *testing.F) {
	// A whole fill followed by a one-byte write.
	f.Add([]byte{spAlloc, 31, spFillWhole, 0, 0x5a, spStore, 0, 7, 1, 0x01, spPeek, 0, 0, 32})
	// A non-zero fill followed by a view.
	f.Add([]byte{spAlloc, 15, spFillWhole, 0, 0xff, spView, 0, 3, 9})
	// A fill of length 0, on a fresh and on a materialised region.
	f.Add([]byte{spAlloc, 7, spFillPart, 0, 2, 0, 9, spPoke, 0, 0, 2, 4, 4, spFillPart, 0, 8, 0, 9, spLoad, 0, 0, 8})
	// A fill on a freed region.
	f.Add([]byte{spAlloc, 63, spFree, 0, spFillWhole, 0, 1, spFillPart, 0, 0, 4, 1, spLoad, 0, 0, 1})
	// Fills, stores and pokes against a protected region, then unprotected.
	f.Add([]byte{spAlloc, 3, spProtect, 0, spFillWhole, 0, 7, spFillPart, 0, 1, 1, 7, spStore, 0, 0, 1, 1, spPoke, 0, 0, 1, 1, spProtect, 0, spFillPart, 0, 1, 2, 7, spLoad, 0, 0, 4})
	// A non-zero whole fill read back by copy, without materialising.
	f.Add([]byte{spAlloc, 7, spFillWhole, 0, 0x3c, spLoad, 0, 2, 5})
	// A partial fill from the base leaves the tail alone.
	f.Add([]byte{spAlloc, 7, spPoke, 0, 6, 2, 1, 2, spFillPart, 0, 0, 3, 9, spLoad, 0, 0, 8})
	// The same bytes written twice, viewed between and after, then a whole
	// fill back to uniform and a view of it.
	f.Add([]byte{spAlloc, 7, spPoke, 0, 1, 2, 4, 4, spView, 0, 0, 8, spPoke, 0, 1, 2, 4, 4, spView, 0, 0, 8, spFillWhole, 0, 4, spView, 0, 1, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s, tw := NewSpace(), NewTimingSpace()
		var watched, twWatched []Access
		s.Watch(1, ^Addr(0), func(a Access) { watched = append(watched, a) })
		tw.Watch(1, ^Addr(0), func(a Access) { twWatched = append(twWatched, a) })
		wantWatched := 0
		var regions []*shadowRegion
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		// span decodes an (off, n) pair that may run up to two bytes past
		// the end, and returns the error the shadow predicts for an access
		// of kind k, which is Load or Store for instrumented accesses and
		// -1 for DMA.
		span := func(sr *shadowRegion, k int) (off, n int, want error) {
			off = int(next()) % (len(sr.data) + 2)
			n = int(next()) % (len(sr.data) + 2)
			switch {
			case off >= len(sr.data):
				want = ErrOutOfRange
			case sr.freed && k >= 0:
				want = ErrUseAfterFree
			case sr.freed || off+n > len(sr.data):
				want = ErrOutOfRange
			}
			return off, n, want
		}
		writeErr := func(sr *shadowRegion, want error) error {
			if want == nil && sr.protected {
				return ErrProtected
			}
			return want
		}
		check := func(op string, err, want error) {
			t.Helper()
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", op, err, want)
			}
			if want == nil && err != nil {
				t.Fatalf("%s: unexpected error %v", op, err)
			}
		}
		// twin checks that the timing-only space failed the same way.
		twin := func(op string, err, twErr error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(twErr) {
				t.Fatalf("%s: timing-only err = %v, content err = %v", op, twErr, err)
			}
		}
		for step := 0; len(prog) > 0; step++ {
			op := next() % spOps
			if op == spAlloc || len(regions) == 0 {
				n := 1 + int(next()%64)
				regions = append(regions, &shadowRegion{r: s.Alloc(n, "fuzz"), tr: tw.Alloc(n, "fuzz"), data: make([]byte, n), seen: map[uint64][]byte{}})
				continue
			}
			sr := regions[int(next())%len(regions)]
			base := sr.r.Base()
			if sr.tr.Base() != base {
				t.Fatalf("twin region at %#x, content region at %#x", sr.tr.Base(), base)
			}
			version := sr.r.version
			wrote := false // a successful write of at least one byte
			switch op {
			case spStore, spPoke:
				k := int(Store)
				if op == spPoke {
					k = -1
				}
				off, n, want := span(sr, k)
				want = writeErr(sr, want)
				p := make([]byte, n)
				for i := range p {
					p[i] = next()
				}
				if op == spStore {
					err := s.Store(site, base+Addr(off), p)
					check("Store", err, want)
					twin("Store", err, tw.Store(site, base+Addr(off), p))
				} else {
					err := s.Poke(base+Addr(off), p)
					check("Poke", err, want)
					twin("Poke", err, tw.PokeN(base+Addr(off), n))
				}
				if want == nil {
					copy(sr.data[off:], p)
					wrote = n > 0
					if op == spStore {
						wantWatched++
					}
				}
			case spFillWhole:
				v := next()
				var want error
				if sr.freed {
					want = ErrOutOfRange
				}
				want = writeErr(sr, want)
				err := s.Fill(base, v, len(sr.data))
				check("Fill whole", err, want)
				twin("Fill whole", err, tw.Fill(base, v, len(sr.data)))
				if want == nil {
					setBytes(sr.data, v)
					wrote = true
				}
			case spFillPart:
				off, n, want := span(sr, -1)
				want = writeErr(sr, want)
				v := next()
				err := s.Fill(base+Addr(off), v, n)
				check("Fill", err, want)
				twin("Fill", err, tw.Fill(base+Addr(off), v, n))
				if want == nil {
					setBytes(sr.data[off:off+n], v)
					wrote = n > 0
				}
			case spLoad, spPeek, spView:
				k := -1
				if op == spLoad {
					k = int(Load)
				}
				off, n, want := span(sr, k)
				var got, twGot []byte
				var err, twErr error
				switch op {
				case spLoad:
					got, err = s.Load(site, base+Addr(off), n)
					twGot, twErr = tw.Load(site, base+Addr(off), n)
				case spPeek:
					got, err = s.Peek(base+Addr(off), n)
					twGot, twErr = tw.Peek(base+Addr(off), n)
					if err == nil {
						if !errors.Is(twErr, ErrNoContent) {
							t.Fatalf("timing-only Peek: err = %v, want ErrNoContent", twErr)
						}
						twErr = nil
					}
				default:
					uniform := sr.r.data == nil
					var v, twV View
					v, err = s.View(base+Addr(off), n)
					twV, twErr = tw.View(base+Addr(off), n)
					if twV.Src != nil || twV.Data != nil || twV.Len != 0 {
						t.Fatalf("timing-only View = %+v, want the zero View", twV)
					}
					if err == nil {
						if v.Uniform() != uniform || (sr.r.data == nil) != uniform {
							t.Fatalf("step %d: View of a region with uniform=%v: view uniform=%v, region now uniform=%v", step, uniform, v.Uniform(), sr.r.data == nil)
						}
						if v.Src != sr.r || v.Off != off || v.Len != n || (!v.Uniform() && v.Version != sr.r.version) {
							t.Fatalf("step %d: View names %p+%d len %d v%d, want %p+%d len %d v%d", step, v.Src, v.Off, v.Len, v.Version, sr.r, off, n, sr.r.version)
						}
						got = v.Data
						if v.Uniform() {
							got = bytes.Repeat([]byte{v.Fill}, n)
						}
					}
				}
				check("read", err, want)
				twin("read", err, twErr)
				if twGot != nil {
					t.Fatalf("timing-only read returned bytes %x", twGot)
				}
				if want == nil {
					if !bytes.Equal(got, sr.data[off:off+n]) {
						t.Fatalf("step %d: read [%d,%d) = %x, shadow %x", step, off, off+n, got, sr.data[off:off+n])
					}
					if op == spLoad {
						wantWatched++
					}
				}
			case spProtect:
				if sr.protected {
					s.Unprotect(sr.r)
					tw.Unprotect(sr.tr)
				} else {
					s.Protect(sr.r)
					tw.Protect(sr.tr)
				}
				sr.protected = !sr.protected
			case spFree:
				if !sr.freed {
					s.Free(sr.r)
					tw.Free(sr.tr)
					sr.freed = true
				}
			}
			if wrote != (sr.r.version != version) {
				t.Fatalf("step %d: op %d moved the version %d -> %d, wrote=%v", step, op, version, sr.r.version, wrote)
			}
			if sr.freed {
				continue
			}
			if prev, ok := sr.seen[sr.r.version]; ok && !bytes.Equal(prev, sr.data) {
				t.Fatalf("step %d: version %d holds %x, held %x before", step, sr.r.version, sr.data, prev)
			}
			sr.seen[sr.r.version] = bytes.Clone(sr.data)
		}
		if len(watched) != wantWatched {
			t.Fatalf("watch fired %d times, want %d (one per successful Load/Store)", len(watched), wantWatched)
		}
		if fmt.Sprint(twWatched) != fmt.Sprint(watched) {
			t.Fatalf("timing-only watch saw %v, content watch %v", twWatched, watched)
		}
		for i, sr := range regions {
			if sr.freed {
				continue
			}
			got, err := s.Peek(sr.r.Base(), len(sr.data))
			if err != nil || !bytes.Equal(got, sr.data) {
				t.Fatalf("region %d final contents %x (err %v), shadow %x", i, got, err, sr.data)
			}
		}
	})
}

func setBytes(p []byte, v byte) {
	for i := range p {
		p[i] = v
	}
}
