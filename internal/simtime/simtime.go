// Package simtime provides the virtual clock that every component of the
// simulated CPU/GPU system runs on.
//
// Diogenes' feed-forward measurement model is defined entirely in terms of
// event timestamps and durations: when a driver call was entered, how long
// the CPU waited inside the internal synchronization function, how far apart
// a synchronization and the first use of protected data are. Reproducing the
// paper without GPU hardware therefore requires a time base that is (a)
// deterministic so multi-run instrumentation observes identical application
// behaviour, and (b) fully decoupled from the wall clock so a multi-hour
// "run" finishes in microseconds. A Clock is a monotonically advancing
// virtual nanosecond counter shared by the simulated CPU thread and the GPU
// device timeline.
package simtime

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Time is an instant on the virtual timeline, in nanoseconds since the start
// of the simulated process. The zero Time is process start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so formatting helpers can be shared.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Infinity is a sentinel used for operations that never complete, such as
// the never-completing kernel launched by the synchronization-function
// discovery test (§3.1 of the paper).
const Infinity Time = 1<<63 - 1

// Add returns the instant d after t, saturating at Infinity.
func (t Time) Add(d Duration) Time {
	if t == Infinity {
		return Infinity
	}
	s := Time(int64(t) + int64(d))
	if d > 0 && s < t {
		return Infinity
	}
	return s
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(int64(t) - int64(u)) }

// Before reports whether t is earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as a duration offset from process start.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return "+" + Duration(t).String()
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock is the virtual CPU clock. It only moves forward. A single Clock is
// shared by the application thread, the driver, and the instrumentation
// layer; the GPU device keeps its own per-stream timelines expressed in the
// same time base.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at process start.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual instant.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative advances are a programming
// error in the simulator and panic loudly rather than corrupting timelines.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to instant t. Moving backwards is a
// programming error; advancing to the current instant is a no-op.
func (c *Clock) AdvanceTo(t Time) Time {
	if t < c.now {
		panic(fmt.Sprintf("simtime: AdvanceTo moving backwards: now=%v target=%v", c.now, t))
	}
	c.now = t
	return c.now
}

// RNG is a splitmix64 generator. Applications use it for data-dependent
// choices (e.g. which matrix tile to stream next) so that runs are exactly
// repeatable across the multiple instrumented executions FFM performs.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value in the sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bytes fills p with deterministic pseudo-random bytes. Applications use it
// to generate transfer payloads whose content hashes are stable across runs,
// which stage 3's content-based deduplication depends on.
//
// Each full 8 bytes take one value, stored little-endian; a short tail
// takes the low bytes of one more value. A fill of n bytes therefore
// consumes ceil(n/8) values.
func (r *RNG) Bytes(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		v := r.Uint64()
		for j := range p {
			p[j] = byte(v >> (8 * j))
		}
	}
}
