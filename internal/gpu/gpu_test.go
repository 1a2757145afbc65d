package gpu

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"diogenes/internal/simtime"
)

func newDev() (*simtime.Clock, *Device) {
	c := simtime.NewClock()
	return c, New(c, DefaultConfig())
}

func TestKernelRunsAfterEnqueue(t *testing.T) {
	c, d := newDev()
	c.Advance(10 * simtime.Microsecond)
	op := d.EnqueueKernel(LegacyStream, "k", 50*simtime.Microsecond)
	if op.Enqueue != c.Now() {
		t.Fatalf("Enqueue = %v, want now", op.Enqueue)
	}
	if op.Start < op.Enqueue {
		t.Fatal("kernel started before enqueue")
	}
	if op.Duration() != 50*simtime.Microsecond {
		t.Fatalf("Duration = %v", op.Duration())
	}
	if d.StreamBusyUntil(LegacyStream) != op.End {
		t.Fatal("StreamBusyUntil != op end")
	}
}

func TestStreamFIFO(t *testing.T) {
	_, d := newDev()
	a := d.EnqueueKernel(LegacyStream, "a", 100*simtime.Microsecond)
	b := d.EnqueueKernel(LegacyStream, "b", 10*simtime.Microsecond)
	if b.Start < a.End {
		t.Fatalf("second op started %v before first finished %v", b.Start, a.End)
	}
}

func TestIndependentStreamsOverlap(t *testing.T) {
	c, d := newDev()
	s1, s2 := d.CreateStream(), d.CreateStream()
	// Prime the legacy fence at zero; only non-legacy streams used.
	a := d.EnqueueKernel(s1, "a", 100*simtime.Microsecond)
	b := d.EnqueueKernel(s2, "b", 100*simtime.Microsecond)
	if b.Start >= a.End {
		t.Fatalf("independent streams serialized: a ends %v, b starts %v", a.End, b.Start)
	}
	_ = c
}

func TestLegacyStreamSerializesAll(t *testing.T) {
	_, d := newDev()
	s1 := d.CreateStream()
	a := d.EnqueueKernel(s1, "a", 100*simtime.Microsecond)
	// Legacy op must wait for s1's work.
	l := d.EnqueueKernel(LegacyStream, "l", 10*simtime.Microsecond)
	if l.Start < a.End {
		t.Fatalf("legacy op started %v before stream op ended %v", l.Start, a.End)
	}
	// And later non-legacy ops must wait for the legacy op.
	b := d.EnqueueKernel(s1, "b", 10*simtime.Microsecond)
	if b.Start < l.End {
		t.Fatalf("stream op started %v before legacy fence %v", b.Start, l.End)
	}
}

func TestNeverCompletingKernel(t *testing.T) {
	_, d := newDev()
	op := d.EnqueueKernel(LegacyStream, "spin", simtime.Duration(simtime.Infinity))
	if op.End != simtime.Infinity {
		t.Fatalf("End = %v, want Infinity", op.End)
	}
	if d.BusyUntil() != simtime.Infinity {
		t.Fatal("device should be busy forever")
	}
}

func TestCopyDurationScalesWithSize(t *testing.T) {
	_, d := newDev()
	small := d.CopyDuration(OpCopyH2D, 1024)
	big := d.CopyDuration(OpCopyH2D, 10*1024*1024)
	if big <= small {
		t.Fatalf("big copy %v not slower than small %v", big, small)
	}
	if small < d.Config().CopyLatency {
		t.Fatal("copy faster than fixed latency")
	}
}

func TestEnqueueCopyKinds(t *testing.T) {
	_, d := newDev()
	op := d.EnqueueCopy(LegacyStream, OpCopyD2H, "c", 4096)
	if op.Kind != OpCopyD2H || op.Bytes != 4096 {
		t.Fatalf("op = %+v", op)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EnqueueCopy with kernel kind did not panic")
		}
	}()
	d.EnqueueCopy(LegacyStream, OpKernel, "bad", 1)
}

func TestBusyUntilAcrossStreams(t *testing.T) {
	_, d := newDev()
	s1 := d.CreateStream()
	d.EnqueueKernel(s1, "a", 100*simtime.Microsecond)
	long := d.EnqueueKernel(s1, "b", 500*simtime.Microsecond)
	if d.BusyUntil() != long.End {
		t.Fatalf("BusyUntil = %v, want %v", d.BusyUntil(), long.End)
	}
}

func TestBusyAndIdleTime(t *testing.T) {
	c, d := newDev()
	op := d.EnqueueKernel(LegacyStream, "k", 100*simtime.Microsecond)
	horizon := op.End.Add(50 * simtime.Microsecond)
	busy := d.BusyTime(horizon)
	if busy != 100*simtime.Microsecond {
		t.Fatalf("BusyTime = %v, want 100µs", busy)
	}
	_ = c
}

func TestBusySpansTruncatesInfinite(t *testing.T) {
	_, d := newDev()
	d.EnqueueKernel(LegacyStream, "spin", simtime.Duration(simtime.Infinity))
	spans := d.BusySpans(simtime.Time(simtime.Second))
	if len(spans) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].End != simtime.Time(simtime.Second) {
		t.Fatalf("span end = %v, want horizon", spans[0].End)
	}
}

func TestMergeSpans(t *testing.T) {
	in := []Span{
		{Start: 10, End: 20},
		{Start: 15, End: 30},
		{Start: 40, End: 50},
		{Start: 50, End: 60}, // adjacent merges
		{Start: 5, End: 8},
	}
	out := MergeSpans(in)
	want := []Span{{Start: 5, End: 8}, {Start: 10, End: 30}, {Start: 40, End: 60}}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, out[i], want[i])
		}
	}
	if MergeSpans(nil) != nil {
		t.Fatal("MergeSpans(nil) != nil")
	}
}

func TestUnknownStreamPanics(t *testing.T) {
	_, d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown stream did not panic")
		}
	}()
	d.EnqueueKernel(StreamID(42), "k", simtime.Microsecond)
}

func TestStreamExists(t *testing.T) {
	_, d := newDev()
	if !d.StreamExists(LegacyStream) {
		t.Fatal("legacy stream missing")
	}
	s := d.CreateStream()
	if !d.StreamExists(s) || d.StreamExists(s+100) {
		t.Fatal("StreamExists wrong")
	}
}

func TestOpKindString(t *testing.T) {
	if OpKernel.String() != "kernel" || OpCopyH2D.String() != "memcpy HtoD" ||
		OpCopyD2H.String() != "memcpy DtoH" || OpCopyD2D.String() != "memcpy DtoD" ||
		OpMemset.String() != "memset" {
		t.Fatal("OpKind strings wrong")
	}
}

func TestMallocFree(t *testing.T) {
	_, d := newDev()
	b, err := d.Malloc(1<<20, "weights")
	if err != nil {
		t.Fatal(err)
	}
	if b.Base() == 0 || b.Size() != 1<<20 || b.Label() != "weights" {
		t.Fatalf("buf = %+v", b)
	}
	st := d.MemStats()
	if st.LiveBytes != 1<<20 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := d.FreeBuf(b); err != nil {
		t.Fatal(err)
	}
	st = d.MemStats()
	if st.LiveBytes != 0 || st.Frees != 1 || st.PeakBytes != 1<<20 {
		t.Fatalf("stats after free = %+v", st)
	}
	if err := d.FreeBuf(b); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("double free: %v", err)
	}
}

func TestMallocOOM(t *testing.T) {
	c := simtime.NewClock()
	cfg := DefaultConfig()
	cfg.MemoryBytes = 1024
	d := New(c, cfg)
	if _, err := d.Malloc(2048, "big"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("OOM not reported: %v", err)
	}
	if _, err := d.Malloc(-1, "neg"); err == nil {
		t.Fatal("negative Malloc succeeded")
	}
}

// An untouched or whole-filled buffer holds no host bytes, but the
// allocator still charges its full size against capacity.
func TestLazyBuffersChargeFullSize(t *testing.T) {
	c := simtime.NewClock()
	cfg := DefaultConfig()
	cfg.MemoryBytes = 1 << 20
	d := New(c, cfg)
	a, err := d.Malloc(768<<10, "untouched")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(512<<10, "too big"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Malloc past MemoryBytes: %v", err)
	}
	b, err := d.Malloc(256<<10, "filled")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DevFill(b.Base(), 7, b.Size()); err != nil {
		t.Fatal(err)
	}
	if st := d.MemStats(); st.LiveBytes != 1<<20 || st.PeakBytes != 1<<20 {
		t.Fatalf("stats = %+v, want live and peak 1 MiB", st)
	}
	if _, err := d.Malloc(1, "full"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Malloc on a full device: %v", err)
	}
	_ = d.FreeBuf(a)
	if st := d.MemStats(); st.LiveBytes != 256<<10 || st.PeakBytes != 1<<20 {
		t.Fatalf("stats after free = %+v", st)
	}
}

func TestDevReadWriteFill(t *testing.T) {
	_, d := newDev()
	b, _ := d.Malloc(64, "buf")
	if err := d.DevWrite(b.Base()+8, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := d.DevRead(b.Base()+8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("DevRead = %v", got)
	}
	if err := d.DevFill(b.Base(), 0xAA, 4); err != nil {
		t.Fatal(err)
	}
	got, _ = d.DevRead(b.Base(), 4)
	for _, v := range got {
		if v != 0xAA {
			t.Fatalf("DevFill byte = %#x", v)
		}
	}
}

func TestDevAccessErrors(t *testing.T) {
	_, d := newDev()
	b, _ := d.Malloc(16, "buf")
	if err := d.DevWrite(b.End(), []byte{1}); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("write past end: %v", err)
	}
	if _, err := d.DevRead(b.Base()+10, 10); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("straddling read: %v", err)
	}
	if err := d.DevFill(DevPtr(1), 0, 1); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("fill unmapped: %v", err)
	}
	_ = d.FreeBuf(b)
	if _, err := d.DevRead(b.Base(), 1); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("read after free: %v", err)
	}
}

// TestFreedBuffersNotRetained checks that the allocator lists only the
// live buffers however many have come and gone, while a freed pointer
// still fails and a double free still errors.
func TestFreedBuffersNotRetained(t *testing.T) {
	_, d := newDev()
	var live []*DevBuf
	var freed *DevBuf
	for i := 0; i < 10000; i++ {
		b, err := d.Malloc(256+i%7, "churn")
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, b)
		if len(live) > 4 { // free front, middle and back buffers in turn
			j := i % len(live)
			freed = live[j]
			if err := d.FreeBuf(freed); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, j, j+1)
		}
	}
	if !slices.Equal(d.mem.bufs, live) {
		t.Fatalf("allocator lists %d buffers, want the %d live ones", len(d.mem.bufs), len(live))
	}
	for _, b := range live {
		if d.BufAt(b.Base()) != b {
			t.Fatalf("live buffer %#x not found", b.Base())
		}
	}
	if _, err := d.DevRead(freed.Base(), 1); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("read of a freed pointer: %v", err)
	}
	if err := d.DevWrite(freed.Base(), []byte{1}); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("write to a freed pointer: %v", err)
	}
	if err := d.FreeBuf(freed); !errors.Is(err, ErrBadDevPtr) {
		t.Fatalf("double free: %v", err)
	}
	if st := d.MemStats(); st.Allocs != 10000 || st.Frees != 10000-int64(len(live)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufAt(t *testing.T) {
	_, d := newDev()
	a, _ := d.Malloc(100, "a")
	b, _ := d.Malloc(100, "b")
	if d.BufAt(a.Base()+50) != a || d.BufAt(b.Base()) != b {
		t.Fatal("BufAt missed buffer")
	}
	if d.BufAt(0) != nil {
		t.Fatal("BufAt(0) found buffer")
	}
}

func TestQuickStreamOpsNeverOverlapWithinStream(t *testing.T) {
	f := func(durs []uint16) bool {
		c := simtime.NewClock()
		d := New(c, DefaultConfig())
		var prevEnd simtime.Time
		for i, raw := range durs {
			if i > 20 {
				break
			}
			op := d.EnqueueKernel(LegacyStream, "k", simtime.Duration(raw)*simtime.Microsecond)
			if op.Start < prevEnd {
				return false
			}
			prevEnd = op.End
			c.Advance(simtime.Duration(raw%7) * simtime.Microsecond)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeSpansDisjointSorted(t *testing.T) {
	f := func(raw []uint8) bool {
		spans := make([]Span, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			s := simtime.Time(raw[i])
			e := s.Add(simtime.Duration(raw[i+1]%32) + 1)
			spans = append(spans, Span{Start: s, End: e})
		}
		out := MergeSpans(spans)
		for i := 1; i < len(out); i++ {
			if out[i].Start <= out[i-1].End {
				return false
			}
		}
		// Total coverage must be >= the longest single input span.
		var maxIn, total simtime.Duration
		for _, s := range spans {
			if d := s.End.Sub(s.Start); d > maxIn {
				maxIn = d
			}
		}
		for _, s := range out {
			total += s.End.Sub(s.Start)
		}
		return total >= maxIn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
