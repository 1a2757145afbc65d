package callstack

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPushPopDepth(t *testing.T) {
	s := New()
	s.Push("main", "main.cpp", 1)
	s.Push("solve", "als.cpp", 100)
	if s.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", s.Depth())
	}
	s.Pop()
	if s.Depth() != 1 {
		t.Fatalf("Depth after pop = %d", s.Depth())
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty stack did not panic")
		}
	}()
	New().Pop()
}

func TestSetLineEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetLine on empty stack did not panic")
		}
	}()
	New().SetLine(5)
}

func TestSnapshotInnermostFirst(t *testing.T) {
	s := New()
	s.Push("main", "main.cpp", 10)
	s.Push("outer", "a.cpp", 20)
	s.Push("inner", "b.cpp", 30)
	tr := s.Snapshot()
	if len(tr) != 3 {
		t.Fatalf("len = %d", len(tr))
	}
	if tr[0].Function != "inner" || tr[2].Function != "main" {
		t.Fatalf("order wrong: %v", tr)
	}
	if tr.Leaf().Function != "inner" {
		t.Fatalf("Leaf = %v", tr.Leaf())
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	s := New()
	s.Push("main", "main.cpp", 10)
	tr := s.Snapshot()
	s.SetLine(99)
	if tr[0].Line != 10 {
		t.Fatal("snapshot aliased live stack")
	}
}

func TestSetLine(t *testing.T) {
	s := New()
	s.Push("f", "f.cpp", 1)
	s.SetLine(42)
	if s.Current().Line != 42 {
		t.Fatalf("Current().Line = %d", s.Current().Line)
	}
}

func TestCurrentEmpty(t *testing.T) {
	if (New().Current() != Frame{}) {
		t.Fatal("Current of empty stack should be zero Frame")
	}
	if (Trace{}).Leaf() != (Frame{}) {
		t.Fatal("Leaf of empty trace should be zero Frame")
	}
}

func TestTraceKeyDistinguishesLines(t *testing.T) {
	a := Trace{{Function: "f", File: "x.cpp", Line: 10}}
	b := Trace{{Function: "f", File: "x.cpp", Line: 11}}
	if a.Key() == b.Key() {
		t.Fatal("Key should distinguish different lines")
	}
	if a.FoldKey() != b.FoldKey() {
		t.Fatal("FoldKey should not distinguish different lines")
	}
}

func TestTraceFoldKeyMergesTemplates(t *testing.T) {
	a := Trace{{Function: "storage<float>::alloc", File: "s.h", Line: 5}}
	b := Trace{{Function: "storage<double>::alloc", File: "s.h", Line: 9}}
	if a.FoldKey() != b.FoldKey() {
		t.Fatalf("FoldKey %q != %q", a.FoldKey(), b.FoldKey())
	}
	if a.Key() == b.Key() {
		t.Fatal("Key should distinguish template instantiations")
	}
}

func TestTraceEqualClone(t *testing.T) {
	a := Trace{{Function: "f", File: "x", Line: 1}, {Function: "g", File: "y", Line: 2}}
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not Equal")
	}
	c[0].Line = 99
	if a.Equal(c) {
		t.Fatal("Equal missed differing frame")
	}
	if a.Equal(a[:1]) {
		t.Fatal("Equal missed length difference")
	}
}

func TestTraceString(t *testing.T) {
	a := Trace{{Function: "f", File: "x.cpp", Line: 1}}
	s := a.String()
	if !strings.Contains(s, "#0 f at x.cpp:1") {
		t.Fatalf("String = %q", s)
	}
}

func TestDemangle(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain_function", "plain_function"},
		{"vec<int>::push", "vec::push"},
		{"thrust::detail::contiguous_storage<T, alloc<T>>::allocate",
			"thrust::detail::contiguous_storage::allocate"},
		{"cusp::system::detail::generic::multiply<cusp::array2d<float, cusp::device_memory>>",
			"cusp::system::detail::generic::multiply"},
		{"thrust::pair<iterator, iterator>", "thrust::pair"},
		{"operator<<", "operator<<"},
		{"matrix<double>::operator[]", "matrix::operator[]"},
		{"std::max<unsigned long>", "std::max"},
		{"a<b<c<d>>>::e", "a::e"},
	}
	for _, c := range cases {
		if got := Demangle(c.in); got != c.want {
			t.Errorf("Demangle(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFrameHelpers(t *testing.T) {
	f := Frame{Function: "storage<int>::fill", File: "s.h", Line: 12}
	if f.String() != "storage<int>::fill at s.h:12" {
		t.Fatalf("String = %q", f.String())
	}
	if f.Site() != "s.h:12" {
		t.Fatalf("Site = %q", f.Site())
	}
	if f.BaseName() != "storage::fill" {
		t.Fatalf("BaseName = %q", f.BaseName())
	}
}

func TestQuickDemangleIdempotent(t *testing.T) {
	f := func(parts []uint8) bool {
		// Build a synthetic name from a constrained alphabet.
		alphabet := []string{"a", "b", "ns::", "<", ">", "x", "::f", "operator<"}
		var b strings.Builder
		for _, p := range parts {
			b.WriteString(alphabet[int(p)%len(alphabet)])
		}
		once := Demangle(b.String())
		return Demangle(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPushPopRestoresDepth(t *testing.T) {
	f := func(n uint8) bool {
		s := New()
		s.Push("root", "r.cpp", 1)
		for i := 0; i < int(n%20); i++ {
			s.Push("f", "f.cpp", i)
		}
		for i := 0; i < int(n%20); i++ {
			s.Pop()
		}
		return s.Depth() == 1 && s.Current().Function == "root"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSnapshotMatchesSnapshot(t *testing.T) {
	s := New()
	s.Push("main", "main.cpp", 1)
	s.Push("solve", "solve.cpp", 10)
	if got, want := s.SharedSnapshot(), s.Snapshot(); !got.Equal(want) {
		t.Fatalf("SharedSnapshot = %v, want %v", got, want)
	}
	s.SetLine(11)
	if got, want := s.SharedSnapshot(), s.Snapshot(); !got.Equal(want) {
		t.Fatalf("after SetLine: SharedSnapshot = %v, want %v", got, want)
	}
	s.Pop()
	if got, want := s.SharedSnapshot(), s.Snapshot(); !got.Equal(want) {
		t.Fatalf("after Pop: SharedSnapshot = %v, want %v", got, want)
	}
}

func TestSharedSnapshotInterns(t *testing.T) {
	s := New()
	s.Push("main", "main.cpp", 1)
	s.Push("loop", "loop.cpp", 5)
	a := s.SharedSnapshot()
	// Leave and re-enter the same position: the trace must be the very
	// same slice, not merely an equal one.
	s.Pop()
	s.Push("loop", "loop.cpp", 5)
	b := s.SharedSnapshot()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("identical stacks produced distinct snapshot allocations")
	}
	// Repeated snapshots without mutation hit the memoized fast path.
	c := s.SharedSnapshot()
	if &b[0] != &c[0] {
		t.Fatal("memoized snapshot not reused")
	}
}

func TestSharedSnapshotEmptyStack(t *testing.T) {
	s := New()
	got := s.SharedSnapshot()
	if got == nil || len(got) != 0 {
		t.Fatalf("empty SharedSnapshot = %#v, want non-nil empty trace", got)
	}
}

func TestSharedSnapshotDistinctLines(t *testing.T) {
	s := New()
	s.Push("f", "f.cpp", 1)
	a := s.SharedSnapshot()
	s.SetLine(2)
	b := s.SharedSnapshot()
	if a.Equal(b) {
		t.Fatal("snapshots at different lines compare equal")
	}
	if a[0].Line != 1 || b[0].Line != 2 {
		t.Fatalf("interned traces mutated: %v / %v", a, b)
	}
}
