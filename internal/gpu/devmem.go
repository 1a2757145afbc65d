package gpu

import (
	"errors"
	"fmt"
	"sort"

	"diogenes/internal/memory"
)

// DevPtr is an address in device memory. The device and host address spaces
// are disjoint; DevPtr 0 is the null device pointer.
type DevPtr uint64

// ErrOutOfMemory is returned when an allocation exceeds device capacity.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// ErrBadDevPtr is returned for accesses to unallocated or freed device
// memory.
var ErrBadDevPtr = errors.New("gpu: invalid device pointer")

// ErrNoContent reports a byte read from a device that keeps no memory
// contents (Keep.Content unset). Pointer errors take precedence over it.
var ErrNoContent = errors.New("gpu: device memory contents not simulated")

// DevBuf is an allocation in device memory. Its bytes are lazy: while data
// is nil every byte equals fill, so an untouched buffer or one just memset
// whole costs no host memory. The first write or partial fill materialises
// the whole buffer once. Every write bumps its content version and no read
// does, as for memory.Region.
type DevBuf struct {
	base    DevPtr
	size    int
	data    []byte // nil while uniform
	fill    byte
	version uint64 // bumped by every write of the contents
	freed   bool
	label   string
}

// dense materialises b and returns its backing bytes.
func (b *DevBuf) dense() []byte {
	if b.data == nil {
		b.data = make([]byte, b.size)
		fillBytes(b.data, b.fill)
	}
	return b.data
}

// read returns a copy of the n bytes at off.
func (b *DevBuf) read(off, n int) []byte {
	out := make([]byte, n)
	if b.data == nil {
		fillBytes(out, b.fill)
	} else {
		copy(out, b.data[off:off+n])
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

// Base returns the buffer's device address.
func (b *DevBuf) Base() DevPtr { return b.base }

// Size returns the buffer length in bytes.
func (b *DevBuf) Size() int { return b.size }

// Label returns the allocation label.
func (b *DevBuf) Label() string { return b.label }

// End returns one past the buffer's last address.
func (b *DevBuf) End() DevPtr { return b.base + DevPtr(b.size) }

// Freed reports whether the buffer has been released.
func (b *DevBuf) Freed() bool { return b.freed }

type devAllocator struct {
	capacity int64
	live     int64
	peak     int64
	next     DevPtr
	bufs     []*DevBuf // sorted by base
	allocs   int64
	frees    int64
}

func newDevAllocator(capacity int64) *devAllocator {
	return &devAllocator{capacity: capacity, next: 4096}
}

// Malloc allocates n bytes of device memory.
func (d *Device) Malloc(n int, label string) (*DevBuf, error) {
	a := d.mem
	if n <= 0 {
		return nil, fmt.Errorf("gpu: Malloc size %d", n)
	}
	if a.live+int64(n) > a.capacity {
		return nil, fmt.Errorf("%w: need %d, %d live of %d", ErrOutOfMemory, n, a.live, a.capacity)
	}
	b := &DevBuf{base: a.next, size: n, label: label}
	a.next += DevPtr(n)
	// Keep 256-byte alignment like cudaMalloc.
	a.next = (a.next + 255) / 256 * 256
	a.live += int64(n)
	if a.live > a.peak {
		a.peak = a.live
	}
	a.bufs = append(a.bufs, b)
	a.allocs++
	return b, nil
}

// FreeBuf releases a device allocation.
func (d *Device) FreeBuf(b *DevBuf) error {
	if b.freed {
		return fmt.Errorf("%w: double free of %q", ErrBadDevPtr, b.label)
	}
	b.freed = true
	b.data = nil
	d.mem.live -= int64(b.size)
	d.mem.frees++
	return nil
}

// BufAt returns the live buffer containing ptr, or nil.
func (d *Device) BufAt(ptr DevPtr) *DevBuf {
	a := d.mem
	i := sort.Search(len(a.bufs), func(i int) bool { return a.bufs[i].End() > ptr })
	if i < len(a.bufs) && ptr >= a.bufs[i].base && !a.bufs[i].freed {
		return a.bufs[i]
	}
	return nil
}

// DevWrite stores p at device address ptr (the landing side of an H2D copy
// or a kernel's output). A device that keeps no content checks the write
// and copies nothing.
func (d *Device) DevWrite(ptr DevPtr, p []byte) error {
	b, err := d.writeBuf(ptr, len(p))
	if err != nil || !d.keep.Content || len(p) == 0 {
		return err
	}
	copy(b.dense()[int(ptr-b.base):], p)
	b.version++
	return nil
}

// DevWriteN is the landing of n bytes the caller does not have: it fails
// exactly as a DevWrite of n bytes would and writes nothing. The driver
// uses it for transfers and kernel outputs in timing-only processes.
func (d *Device) DevWriteN(ptr DevPtr, n int) error {
	_, err := d.writeBuf(ptr, n)
	return err
}

// writeBuf returns the live buffer holding [ptr, ptr+n), or the error a
// write of that range fails with.
func (d *Device) writeBuf(ptr DevPtr, n int) (*DevBuf, error) {
	b := d.BufAt(ptr)
	if b == nil {
		return nil, fmt.Errorf("%w: write %#x", ErrBadDevPtr, ptr)
	}
	if ptr+DevPtr(n) > b.End() {
		return nil, fmt.Errorf("%w: write past end of %q", ErrBadDevPtr, b.label)
	}
	return b, nil
}

// DevRead loads n bytes from device address ptr. A device that keeps no
// content fails it with ErrNoContent once the pointer checks pass.
func (d *Device) DevRead(ptr DevPtr, n int) ([]byte, error) {
	b, err := d.readBuf(ptr, n)
	if err != nil {
		return nil, err
	}
	if !d.keep.Content {
		return nil, fmt.Errorf("%w: read %#x", ErrNoContent, ptr)
	}
	return b.read(int(ptr-b.base), n), nil
}

// DevView is DevRead without the copy, and without materialising a
// uniform buffer (see memory.View): the driver's transfers read their
// source through it. It fails as DevRead does; a device that keeps no
// content checks the range and returns the zero View.
func (d *Device) DevView(ptr DevPtr, n int) (memory.View, error) {
	b, err := d.readBuf(ptr, n)
	if err != nil || !d.keep.Content {
		return memory.View{}, err
	}
	return memory.ViewOf(b, b.data, b.fill, b.version, int(ptr-b.base), n), nil
}

// readBuf returns the live buffer holding [ptr, ptr+n), or the error a
// read of that range fails with.
func (d *Device) readBuf(ptr DevPtr, n int) (*DevBuf, error) {
	b := d.BufAt(ptr)
	if b == nil {
		return nil, fmt.Errorf("%w: read %#x", ErrBadDevPtr, ptr)
	}
	if ptr+DevPtr(n) > b.End() {
		return nil, fmt.Errorf("%w: read past end of %q", ErrBadDevPtr, b.label)
	}
	return b, nil
}

// DevFill sets n bytes at ptr to value v (memset landing). A fill of the
// whole buffer drops its backing and leaves it uniform, so it is O(1). A
// device that keeps no content checks the fill and stores nothing.
func (d *Device) DevFill(ptr DevPtr, v byte, n int) error {
	b := d.BufAt(ptr)
	if b == nil {
		return fmt.Errorf("%w: fill %#x", ErrBadDevPtr, ptr)
	}
	if ptr+DevPtr(n) > b.End() {
		return fmt.Errorf("%w: fill past end of %q", ErrBadDevPtr, b.label)
	}
	if n <= 0 || !d.keep.Content {
		return nil
	}
	b.version++
	if ptr == b.base && n == b.size {
		b.data, b.fill = nil, v
		return nil
	}
	off := int(ptr - b.base)
	fillBytes(b.dense()[off:off+n], v)
	return nil
}

// MemStats reports allocator activity.
type MemStats struct {
	LiveBytes int64
	PeakBytes int64
	Allocs    int64
	Frees     int64
}

// MemStats returns current device-memory statistics.
func (d *Device) MemStats() MemStats {
	return MemStats{
		LiveBytes: d.mem.live,
		PeakBytes: d.mem.peak,
		Allocs:    d.mem.allocs,
		Frees:     d.mem.frees,
	}
}
