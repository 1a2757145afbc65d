// Package callstack tracks the simulated application's call stack and
// implements the stack-trace identity rules Diogenes' analysis stage uses
// for grouping problems.
//
// The real tool walks the native stack at each intercepted driver call. Here
// the application framework pushes a Frame for every modelled source
// function, and instrumentation snapshots the stack on demand. Two identity
// keys matter for §3.5.2's groupings: the *single point* key matches frames
// by exact instruction position (function, file, line), and the *folded
// function* key matches by demangled base function name with template
// parameter types discarded, so all instantiations of one C++ template fold
// together.
package callstack

import (
	"fmt"
	"strings"
)

// Frame is one activation record: the function executing and the source
// coordinates of the call site it is currently at.
type Frame struct {
	Function string `json:"function"`
	File     string `json:"file"`
	Line     int    `json:"line"`
}

// String renders the frame like a debugger would.
func (f Frame) String() string {
	return fmt.Sprintf("%s at %s:%d", f.Function, f.File, f.Line)
}

// Site returns just the source position of the frame.
func (f Frame) Site() string { return fmt.Sprintf("%s:%d", f.File, f.Line) }

// BaseName returns the frame's function name with C++ template parameter
// lists removed (see Demangle).
func (f Frame) BaseName() string { return Demangle(f.Function) }

// Trace is a snapshot of the stack, innermost frame first (index 0 is the
// function that performed the operation).
type Trace []Frame

// Leaf returns the innermost frame, or a zero Frame for an empty trace.
func (t Trace) Leaf() Frame {
	if len(t) == 0 {
		return Frame{}
	}
	return t[0]
}

// Key is the single-point identity: every frame matched by exact
// function/file/line. Two operations with equal Keys originate from the same
// instruction through the same path.
func (t Trace) Key() string {
	var b strings.Builder
	for i, f := range t {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s@%s:%d", f.Function, f.File, f.Line)
	}
	return b.String()
}

// FoldKey is the folded-function identity: frames matched by demangled base
// function name only, so template instantiations and differing call lines
// within one function collapse together.
func (t Trace) FoldKey() string {
	var b strings.Builder
	for i, f := range t {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(Demangle(f.Function))
	}
	return b.String()
}

// String renders the trace one frame per line, innermost first.
func (t Trace) String() string {
	var b strings.Builder
	for i, f := range t {
		fmt.Fprintf(&b, "#%d %s\n", i, f)
	}
	return b.String()
}

// Clone returns an independent copy of the trace.
func (t Trace) Clone() Trace {
	out := make(Trace, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two traces are frame-for-frame identical.
func (t Trace) Equal(u Trace) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Demangle strips template parameter lists from a C++-style function name:
// "thrust::detail::storage<int, alloc<int>>::allocate" becomes
// "thrust::detail::storage::allocate". §3.5.2: "Template function calls with
// the same function name with instances that differ only by template
// parameter types often are the same function in source code." Angle
// brackets appearing in operator names (operator<, operator<<, operator->)
// are preserved.
func Demangle(name string) string {
	var b strings.Builder
	depth := 0
	i := 0
	for i < len(name) {
		// Keep operator names intact, including any <, > they contain.
		if depth == 0 && strings.HasPrefix(name[i:], "operator") {
			j := i + len("operator")
			for j < len(name) && strings.ContainsRune("<>=!+-*/%&|^~[]", rune(name[j])) {
				j++
			}
			b.WriteString(name[i:j])
			i = j
			continue
		}
		c := name[i]
		switch c {
		case '<':
			depth++
		case '>':
			if depth > 0 {
				depth--
			} else {
				b.WriteByte(c)
			}
		default:
			if depth == 0 {
				b.WriteByte(c)
			}
		}
		i++
	}
	return b.String()
}

// Stack is the live call stack of the simulated application thread.
type Stack struct {
	frames []Frame

	// Shared-snapshot interning. Applications sit in the same loop for
	// thousands of driver calls, so the same stack is snapshotted over and
	// over; interning makes the steady-state cost of SharedSnapshot one
	// hash of the frames instead of one allocation per traced call.
	version     uint64             // bumped by every Push/Pop/SetLine
	snapVersion uint64             // stack version snapTrace was taken at
	snapTrace   Trace              // memoized snapshot for snapVersion
	interned    map[uint64][]Trace // frame-content hash -> traces (collision chain)
}

// New returns an empty stack.
func New() *Stack { return &Stack{} }

// Push enters a function. The line records the position within the *caller*
// semantics used by the app framework: the declaration site of the callee.
func (s *Stack) Push(function, file string, line int) {
	s.frames = append(s.frames, Frame{Function: function, File: file, Line: line})
	s.version++
}

// Pop leaves the current function. Popping an empty stack is a framework
// bug and panics.
func (s *Stack) Pop() {
	if len(s.frames) == 0 {
		panic("callstack: pop of empty stack")
	}
	s.frames = s.frames[:len(s.frames)-1]
	s.version++
}

// SetLine updates the source line of the innermost frame, modelling the
// program counter advancing within a function between driver calls.
func (s *Stack) SetLine(line int) {
	if len(s.frames) == 0 {
		panic("callstack: SetLine with empty stack")
	}
	s.frames[len(s.frames)-1].Line = line
	s.version++
}

// Depth returns the current nesting depth.
func (s *Stack) Depth() int { return len(s.frames) }

// Snapshot returns the current trace, innermost frame first.
func (s *Stack) Snapshot() Trace {
	t := make(Trace, len(s.frames))
	for i := range s.frames {
		t[i] = s.frames[len(s.frames)-1-i]
	}
	return t
}

// SharedSnapshot returns the current trace, innermost frame first, interned:
// repeated snapshots of an identical stack return the *same* Trace value.
// The returned trace is shared and must be treated as immutable — consumers
// that need a private mutable copy should Clone it. Records holding shared
// traces serialize identically to ones holding private copies.
func (s *Stack) SharedSnapshot() Trace {
	if s.snapVersion == s.version && s.snapTrace != nil {
		return s.snapTrace
	}
	h := s.frameHash()
	if s.interned == nil {
		s.interned = make(map[uint64][]Trace)
	}
	for _, t := range s.interned[h] {
		if s.matches(t) {
			s.snapTrace = t
			s.snapVersion = s.version
			return t
		}
	}
	t := s.Snapshot()
	if len(t) == 0 {
		t = emptyTrace
	}
	s.interned[h] = append(s.interned[h], t)
	s.snapTrace = t
	s.snapVersion = s.version
	return t
}

// emptyTrace is the shared snapshot of an empty stack; non-nil so it
// serializes exactly like the zero-length Trace Snapshot returns.
var emptyTrace = make(Trace, 0)

// frameHash is an FNV-1a hash over the live frames, cheap enough to compute
// per snapshot without allocating.
func (s *Stack) frameHash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := range s.frames {
		f := &s.frames[i]
		for _, str := range [2]string{f.Function, f.File} {
			for j := 0; j < len(str); j++ {
				h = (h ^ uint64(str[j])) * prime
			}
			h = (h ^ 0xff) * prime
		}
		h = (h ^ uint64(f.Line)) * prime
	}
	return h
}

// matches reports whether t equals the current stack rendered
// innermost-first.
func (s *Stack) matches(t Trace) bool {
	if len(t) != len(s.frames) {
		return false
	}
	for i := range t {
		if t[i] != s.frames[len(s.frames)-1-i] {
			return false
		}
	}
	return true
}

// Current returns the innermost frame without copying the whole stack.
func (s *Stack) Current() Frame {
	if len(s.frames) == 0 {
		return Frame{}
	}
	return s.frames[len(s.frames)-1]
}
