package simtime

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(0)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("zero advance moved clock to %v", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Time(Second))
	if c.Now() != Time(Second) {
		t.Fatalf("Now() = %v, want 1s", c.Now())
	}
	c.AdvanceTo(Time(Second)) // same instant is fine
}

func TestClockAdvanceToBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(Second)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	c.AdvanceTo(Time(Millisecond))
}

func TestTimeAddSaturatesAtInfinity(t *testing.T) {
	if got := Infinity.Add(Second); got != Infinity {
		t.Fatalf("Infinity.Add = %v, want Infinity", got)
	}
	near := Time(int64(Infinity) - 1)
	if got := near.Add(Duration(10)); got != Infinity {
		t.Fatalf("overflow Add = %v, want Infinity", got)
	}
}

func TestTimeSub(t *testing.T) {
	a, b := Time(10*Second), Time(4*Second)
	if d := a.Sub(b); d != 6*Second {
		t.Fatalf("Sub = %v, want 6s", d)
	}
}

func TestTimeOrdering(t *testing.T) {
	if !Time(1).Before(Time(2)) || Time(2).Before(Time(1)) {
		t.Fatal("Before misordered")
	}
	if !Time(2).After(Time(1)) || Time(1).After(Time(2)) {
		t.Fatal("After misordered")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(Time(1), Time(2)) != Time(2) || Max(Time(3), Time(2)) != Time(3) {
		t.Fatal("Max wrong")
	}
	if Min(Time(1), Time(2)) != Time(1) || Min(Time(3), Time(2)) != Time(2) {
		t.Fatal("Min wrong")
	}
}

func TestDurationHelpers(t *testing.T) {
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", d.Seconds())
	}
	if d.String() != "1.5s" {
		t.Fatalf("String = %q, want 1.5s", d.String())
	}
	if Time(Infinity).String() != "+inf" {
		t.Fatalf("Infinity String = %q", Time(Infinity).String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 collisions between different seeds", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGBytesDeterministic(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	NewRNG(5).Bytes(a)
	NewRNG(5).Bytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	// Not all zero.
	zero := true
	for _, v := range a {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("Bytes produced all-zero output")
	}
}

// bytesByteWise is the byte-at-a-time fill Bytes replaced. Transfer
// payloads, and so every stage 3 digest and golden, derive from its output.
func bytesByteWise(r *RNG, p []byte) {
	for i := 0; i < len(p); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
}

// TestRNGBytesMatchesByteWise pins the word-at-a-time Bytes to the
// byte-wise fill: same bytes for every length, including tails that are not
// a multiple of 8, and the same generator state afterwards.
func TestRNGBytesMatchesByteWise(t *testing.T) {
	const maxLen = 1100
	got := make([]byte, maxLen)
	want := make([]byte, maxLen)
	for seed := uint64(0); seed < 50; seed++ {
		s := seed*0x9e3779b97f4a7c15 + seed
		for n := 0; n <= maxLen; n++ {
			r, ref := NewRNG(s), NewRNG(s)
			r.Bytes(got[:n])
			bytesByteWise(ref, want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("seed %#x len %d: Bytes = %x, want %x", s, n, got[:n], want[:n])
			}
			if a, b := r.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %#x len %d: next Uint64 = %#x, want %#x", s, n, a, b)
			}
		}
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(base int32, delta uint16) bool {
		start := Time(base)
		d := Duration(delta)
		return start.Add(d).Sub(start) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxMinAgree(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		return Max(x, y) >= Min(x, y) && (Max(x, y) == x || Max(x, y) == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
