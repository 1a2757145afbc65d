package gpu

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// Operations decoded by FuzzLazyDevMem. Each consumes the argument bytes
// listed beside it; a buffer argument picks among the allocations so far.
const (
	devAlloc     = iota // size
	devWrite            // buf, off, n, then n payload bytes
	devFillWhole        // buf, v
	devFillPart         // buf, off, n, v
	devRead             // buf, off, n
	devView             // buf, off, n
	devFree             // buf
	devOps
)

// shadowBuf is the dense model a DevBuf must agree with. tbuf is the
// buffer's twin on the timing-only device.
type shadowBuf struct {
	buf   *DevBuf
	tbuf  *DevBuf
	data  []byte
	freed bool
	seen  map[uint64][]byte // shadow bytes last observed at each version
}

// FuzzLazyDevMem runs a decoded sequence of device-memory operations
// against the lazy DevBuf and against a plain []byte per buffer. Every read
// and view must equal the shadow bytes, and every operation must fail
// exactly when the shadow says it addresses outside a live buffer.
//
// Each sequence is replayed on a timing-only twin as well (no Keep.Content,
// with writes landing through DevWriteN as the driver's do). Every
// operation must succeed or fail there with the same error as on the
// content device, and DevRead must fail with ErrNoContent exactly where
// the content device returns bytes.
//
// Content versions must name contents: every successful DevWrite or DevFill
// of at least one byte bumps the buffer's version, nothing else does, and a
// buffer holds the same bytes whenever it is at a version seen before. A
// DevView must not materialise a uniform buffer, and a dense DevView
// carries the buffer's current version.
func FuzzLazyDevMem(f *testing.F) {
	// A whole fill followed by a one-byte write.
	f.Add([]byte{devAlloc, 31, devFillWhole, 0, 0x5a, devWrite, 0, 7, 1, 0x01, devRead, 0, 0, 32})
	// A non-zero fill followed by a view.
	f.Add([]byte{devAlloc, 15, devFillWhole, 0, 0xff, devView, 0, 3, 9})
	// A fill of length 0, on a fresh and on a materialised buffer.
	f.Add([]byte{devAlloc, 7, devFillPart, 0, 2, 0, 9, devWrite, 0, 0, 2, 4, 4, devFillPart, 0, 8, 0, 9, devRead, 0, 0, 8})
	// A fill on a freed buffer.
	f.Add([]byte{devAlloc, 63, devFree, 0, devFillWhole, 0, 1, devFillPart, 0, 0, 4, 1, devFree, 0})
	// Whole fills back to uniform after writes, across two buffers.
	f.Add([]byte{devAlloc, 3, devAlloc, 3, devWrite, 1, 1, 2, 8, 9, devFillWhole, 1, 0, devRead, 1, 0, 4, devFillPart, 0, 1, 2, 6, devView, 0, 0, 4})
	// A non-zero whole fill read back by copy, without materialising.
	f.Add([]byte{devAlloc, 7, devFillWhole, 0, 0x3c, devRead, 0, 2, 5})
	// A partial fill from the base leaves the tail alone.
	f.Add([]byte{devAlloc, 7, devWrite, 0, 6, 2, 1, 2, devFillPart, 0, 0, 3, 9, devRead, 0, 0, 8})
	// The same bytes written twice, viewed between and after, then a whole
	// fill back to uniform and a view of it.
	f.Add([]byte{devAlloc, 7, devWrite, 0, 1, 2, 4, 4, devView, 0, 0, 8, devWrite, 0, 1, 2, 4, 4, devView, 0, 0, 8, devFillWhole, 0, 4, devView, 0, 1, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		_, d := newDev()
		td := NewKeeping(simtime.NewClock(), DefaultConfig(), Keep{})
		var bufs []*shadowBuf
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		// span decodes an (off, n) pair that may run up to two bytes past
		// the end, and reports whether the shadow rejects it.
		span := func(sb *shadowBuf) (off, n int, bad bool) {
			off = int(next()) % (len(sb.data) + 2)
			n = int(next()) % (len(sb.data) + 2)
			return off, n, sb.freed || off >= len(sb.data) || off+n > len(sb.data)
		}
		check := func(op string, err error, bad bool) {
			t.Helper()
			if bad && !errors.Is(err, ErrBadDevPtr) {
				t.Fatalf("%s: err = %v, want ErrBadDevPtr", op, err)
			}
			if !bad && err != nil {
				t.Fatalf("%s: unexpected error %v", op, err)
			}
		}
		// twin checks that the timing-only device failed the same way.
		twin := func(op string, err, twErr error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(twErr) {
				t.Fatalf("%s: timing-only err = %v, content err = %v", op, twErr, err)
			}
		}
		for step := 0; len(prog) > 0; step++ {
			op := next() % devOps
			if op == devAlloc || len(bufs) == 0 {
				n := 1 + int(next()%64)
				b, err := d.Malloc(n, "fuzz")
				if err != nil {
					t.Fatal(err)
				}
				tb, err := td.Malloc(n, "fuzz")
				if err != nil {
					t.Fatal(err)
				}
				bufs = append(bufs, &shadowBuf{buf: b, tbuf: tb, data: make([]byte, n), seen: map[uint64][]byte{}})
				continue
			}
			sb := bufs[int(next())%len(bufs)]
			base := sb.buf.Base()
			if sb.tbuf.Base() != base {
				t.Fatalf("twin buffer at %#x, content buffer at %#x", sb.tbuf.Base(), base)
			}
			version := sb.buf.version
			wrote := false // a successful write of at least one byte
			switch op {
			case devWrite:
				off, n, bad := span(sb)
				p := make([]byte, n)
				for i := range p {
					p[i] = next()
				}
				err := d.DevWrite(base+DevPtr(off), p)
				check("DevWrite", err, bad)
				twin("DevWrite", err, td.DevWriteN(base+DevPtr(off), n))
				if !bad {
					copy(sb.data[off:], p)
					wrote = n > 0
				}
			case devFillWhole:
				v := next()
				err := d.DevFill(base, v, len(sb.data))
				check("DevFill whole", err, sb.freed)
				twin("DevFill whole", err, td.DevFill(base, v, len(sb.data)))
				if !sb.freed {
					setBytes(sb.data, v)
					wrote = true
				}
			case devFillPart:
				off, n, bad := span(sb)
				v := next()
				err := d.DevFill(base+DevPtr(off), v, n)
				check("DevFill", err, bad)
				twin("DevFill", err, td.DevFill(base+DevPtr(off), v, n))
				if !bad {
					setBytes(sb.data[off:off+n], v)
					wrote = n > 0
				}
			case devRead, devView:
				off, n, bad := span(sb)
				var got, twGot []byte
				var err, twErr error
				if op == devRead {
					got, err = d.DevRead(base+DevPtr(off), n)
					twGot, twErr = td.DevRead(base+DevPtr(off), n)
					if err == nil {
						if !errors.Is(twErr, ErrNoContent) {
							t.Fatalf("timing-only DevRead: err = %v, want ErrNoContent", twErr)
						}
						twErr = nil
					}
				} else {
					uniform := sb.buf.data == nil
					var v, twV memory.View
					v, err = d.DevView(base+DevPtr(off), n)
					twV, twErr = td.DevView(base+DevPtr(off), n)
					if twV.Src != nil || twV.Data != nil || twV.Len != 0 {
						t.Fatalf("timing-only DevView = %+v, want the zero View", twV)
					}
					if err == nil {
						if v.Uniform() != uniform || (sb.buf.data == nil) != uniform {
							t.Fatalf("step %d: DevView of a buffer with uniform=%v: view uniform=%v, buffer now uniform=%v", step, uniform, v.Uniform(), sb.buf.data == nil)
						}
						if v.Src != sb.buf || v.Off != off || v.Len != n || (!v.Uniform() && v.Version != sb.buf.version) {
							t.Fatalf("step %d: DevView names %p+%d len %d v%d, want %p+%d len %d v%d", step, v.Src, v.Off, v.Len, v.Version, sb.buf, off, n, sb.buf.version)
						}
						got = v.Data
						if v.Uniform() {
							got = bytes.Repeat([]byte{v.Fill}, n)
						}
					}
				}
				check("read", err, bad)
				twin("read", err, twErr)
				if twGot != nil {
					t.Fatalf("timing-only read returned bytes %x", twGot)
				}
				if !bad && !bytes.Equal(got, sb.data[off:off+n]) {
					t.Fatalf("step %d: read [%d,%d) = %x, shadow %x", step, off, off+n, got, sb.data[off:off+n])
				}
			case devFree:
				err := d.FreeBuf(sb.buf)
				check("FreeBuf", err, sb.freed)
				twin("FreeBuf", err, td.FreeBuf(sb.tbuf))
				sb.freed = true
			}
			if wrote != (sb.buf.version != version) {
				t.Fatalf("step %d: op %d moved the version %d -> %d, wrote=%v", step, op, version, sb.buf.version, wrote)
			}
			if sb.freed {
				continue
			}
			if prev, ok := sb.seen[sb.buf.version]; ok && !bytes.Equal(prev, sb.data) {
				t.Fatalf("step %d: version %d holds %x, held %x before", step, sb.buf.version, sb.data, prev)
			}
			sb.seen[sb.buf.version] = bytes.Clone(sb.data)
		}
		for i, sb := range bufs {
			if sb.freed {
				continue
			}
			got, err := d.DevRead(sb.buf.Base(), len(sb.data))
			if err != nil || !bytes.Equal(got, sb.data) {
				t.Fatalf("buffer %d final contents %x (err %v), shadow %x", i, got, err, sb.data)
			}
		}
	})
}

func setBytes(p []byte, v byte) {
	for i := range p {
		p[i] = v
	}
}
