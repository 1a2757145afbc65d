package memory

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

var site = Site{Function: "solve", File: "als.cpp", Line: 738}

func TestAllocDistinctPageAligned(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, "a")
	b := s.Alloc(100, "b")
	if a.Base() == 0 {
		t.Fatal("allocation at null address")
	}
	if a.Base()%PageSize != 0 || b.Base()%PageSize != 0 {
		t.Fatalf("allocations not page aligned: %#x %#x", a.Base(), b.Base())
	}
	if a.End() > b.Base() {
		t.Fatalf("regions overlap: a=[%#x,%#x) b starts %#x", a.Base(), a.End(), b.Base())
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	NewSpace().Alloc(0, "zero")
}

func TestStoreLoadRoundTrip(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(64, "buf")
	want := []byte("hello, gpu")
	if err := s.Store(site, r.Base()+3, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(site, r.Base()+3, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Load = %q, want %q", got, want)
	}
}

func TestLoadReturnsCopy(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(8, "buf")
	if err := s.Store(site, r.Base(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Load(site, r.Base(), 3)
	got[0] = 99
	again, _ := s.Load(site, r.Base(), 3)
	if again[0] != 1 {
		t.Fatal("Load aliased internal storage")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "buf")
	if _, err := s.Load(site, r.End(), 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("load past end: %v", err)
	}
	if err := s.Store(site, r.Base()+10, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("straddling store: %v", err)
	}
	if _, err := s.Load(site, 0, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("null load: %v", err)
	}
}

func TestUseAfterFree(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "temp")
	s.Free(r)
	if !r.Freed() {
		t.Fatal("Freed() false after Free")
	}
	if _, err := s.Load(site, r.Base(), 1); !errors.Is(err, ErrUseAfterFree) {
		t.Fatalf("load after free: %v", err)
	}
	if err := s.Store(site, r.Base(), []byte{1}); !errors.Is(err, ErrUseAfterFree) {
		t.Fatalf("store after free: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "temp")
	s.Free(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.Free(r)
}

func TestProtect(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(32, "const data")
	s.Protect(r)
	if err := s.Store(site, r.Base(), []byte{1}); !errors.Is(err, ErrProtected) {
		t.Fatalf("store to protected: %v", err)
	}
	if err := s.Poke(r.Base(), []byte{1}); !errors.Is(err, ErrProtected) {
		t.Fatalf("poke to protected: %v", err)
	}
	if _, err := s.Load(site, r.Base(), 1); err != nil {
		t.Fatalf("load from protected should succeed: %v", err)
	}
	s.Unprotect(r)
	if err := s.Store(site, r.Base(), []byte{1}); err != nil {
		t.Fatalf("store after Unprotect: %v", err)
	}
}

func TestPeekPokeBypassWatchers(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "dma")
	fired := 0
	s.Watch(r.Base(), r.End(), func(Access) { fired++ })
	if err := s.Poke(r.Base(), []byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Peek(r.Base(), 1); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("DMA access fired %d watcher events", fired)
	}
	got, _ := s.Peek(r.Base(), 1)
	if got[0] != 7 {
		t.Fatalf("Peek = %d, want 7", got[0])
	}
}

func TestFillProtected(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(32, "const data")
	s.Protect(r)
	if err := s.Fill(r.Base(), 1, r.Size()); !errors.Is(err, ErrProtected) {
		t.Fatalf("whole fill of protected: %v", err)
	}
	if err := s.Fill(r.Base()+4, 1, 4); !errors.Is(err, ErrProtected) {
		t.Fatalf("partial fill of protected: %v", err)
	}
	got, _ := s.Peek(r.Base(), r.Size())
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("rejected fill changed bytes: %v", got)
	}
}

func TestFillPastEnd(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(32, "buf")
	if err := s.Fill(r.Base()+30, 1, 3); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("fill past end: %v", err)
	}
	if err := s.Fill(r.End(), 1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("fill at end: %v", err)
	}
	if err := s.Fill(r.Base(), 1, r.Size()+1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("fill of size+1: %v", err)
	}
}

func TestPartialFillOfUniformRegion(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "accum")
	fired := 0
	s.Watch(r.Base(), r.End(), func(Access) { fired++ })
	if err := s.Fill(r.Base(), 0xAA, r.Size()); err != nil {
		t.Fatal(err)
	}
	if err := s.Fill(r.Base()+4, 0x55, 8); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Peek(r.Base(), r.Size())
	want := append(append(bytes.Repeat([]byte{0xAA}, 4), bytes.Repeat([]byte{0x55}, 8)...), bytes.Repeat([]byte{0xAA}, 4)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after partial fill = %x, want %x", got, want)
	}
	if fired != 0 {
		t.Fatalf("Fill fired %d watcher events", fired)
	}
}

func TestWatchFiresOnOverlap(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(100, "gpu writable")
	var seen []Access
	s.Watch(r.Base()+10, r.Base()+20, func(a Access) { seen = append(seen, a) })

	// Entirely before: no event.
	if err := s.Store(site, r.Base(), make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	// Straddling the low edge: event.
	if err := s.Store(site, r.Base()+5, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	// Inside: event.
	if _, err := s.Load(site, r.Base()+12, 2); err != nil {
		t.Fatal(err)
	}
	// Entirely after: no event.
	if _, err := s.Load(site, r.Base()+20, 5); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("got %d events, want 2", len(seen))
	}
	if seen[0].Kind != Store || seen[1].Kind != Load {
		t.Fatalf("event kinds = %v,%v", seen[0].Kind, seen[1].Kind)
	}
	if seen[1].Site != site {
		t.Fatalf("site = %v, want %v", seen[1].Site, site)
	}
}

func TestUnwatch(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "w")
	fired := 0
	id := s.Watch(r.Base(), r.End(), func(Access) { fired++ })
	if s.WatchCount() != 1 {
		t.Fatalf("WatchCount = %d", s.WatchCount())
	}
	s.Unwatch(id)
	s.Unwatch(id) // idempotent
	if s.WatchCount() != 0 {
		t.Fatalf("WatchCount after Unwatch = %d", s.WatchCount())
	}
	if err := s.Store(site, r.Base(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("watcher fired after Unwatch")
	}
}

func TestWatchEmptyRangePanics(t *testing.T) {
	s := NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("empty Watch range did not panic")
		}
	}()
	s.Watch(10, 10, func(Access) {})
}

func TestAccessCounters(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(16, "c")
	_ = s.Store(site, r.Base(), []byte{1})
	_, _ = s.Load(site, r.Base(), 1)
	_, _ = s.Load(site, r.Base(), 1)
	if s.Stores() != 1 || s.Loads() != 2 {
		t.Fatalf("counters = %d stores %d loads", s.Stores(), s.Loads())
	}
}

func TestRegionAt(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(10, "a")
	b := s.Alloc(10, "b")
	if got := s.RegionAt(a.Base() + 5); got != a {
		t.Fatal("RegionAt missed region a")
	}
	if got := s.RegionAt(b.Base()); got != b {
		t.Fatal("RegionAt missed region b")
	}
	if got := s.RegionAt(b.End() + 1000000); got != nil {
		t.Fatal("RegionAt found phantom region")
	}
	s.Free(a)
	if got := s.RegionAt(a.Base()); got != nil {
		t.Fatal("RegionAt returned freed region")
	}
}

func TestSiteString(t *testing.T) {
	if got := site.String(); got != "solve (als.cpp:738)" {
		t.Fatalf("Site.String = %q", got)
	}
	if got := (Site{}).String(); got != "<unknown>" {
		t.Fatalf("zero Site.String = %q", got)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("AccessKind strings wrong")
	}
}

func TestQuickStoreLoadAnyOffset(t *testing.T) {
	s := NewSpace()
	r := s.Alloc(4096, "q")
	f := func(off uint16, val byte) bool {
		o := Addr(off) % 4095
		if err := s.Store(site, r.Base()+o, []byte{val}); err != nil {
			return false
		}
		got, err := s.Load(site, r.Base()+o, 1)
		return err == nil && got[0] == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocationsNeverOverlap(t *testing.T) {
	s := NewSpace()
	var prevEnd Addr
	f := func(sz uint16) bool {
		n := int(sz%8192) + 1
		r := s.Alloc(n, "q")
		ok := r.Base() >= prevEnd
		prevEnd = r.End()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
