package cuda

import (
	"fmt"
	"testing"

	"diogenes/internal/callstack"
	"diogenes/internal/gpu"
	"diogenes/internal/memory"
	"diogenes/internal/simtime"
)

// newTimingEnv is newEnv for a process that keeps neither memory contents
// nor a device-op log.
func newTimingEnv() *env {
	clock := simtime.NewClock()
	dev := gpu.NewKeeping(clock, gpu.DefaultConfig(), gpu.Keep{})
	host := memory.NewTimingSpace()
	stack := callstack.New()
	stack.Push("main", "main.cpp", 1)
	return &env{
		clock: clock, dev: dev, host: host, stack: stack,
		ctx: NewContext(clock, dev, host, stack, DefaultConfig()),
	}
}

// opLog copies every reported device op, as a listener must: a device
// without an op log reuses the *gpu.Op it reports.
type opLog struct{ ops []gpu.Op }

func (l *opLog) DriverCall(Func, simtime.Time, simtime.Time) {}
func (l *opLog) SyncRecord(Func, simtime.Time, simtime.Time) {}
func (l *opLog) DeviceOp(op *gpu.Op)                         { l.ops = append(l.ops, *op) }

// TestTimingOnlyDriverCalls drives one script of transfers, launches and
// memsets, several of them out of range, write-protected or after a free,
// through a content-keeping and a timing-only context. Every call must
// return the same error at the same virtual time, and the listener must
// see the same device ops, including a same-device peer copy whose two ops
// share the reused Op. Payload capture is refused without content.
func TestTimingOnlyDriverCalls(t *testing.T) {
	script := func(e *env) (out []string, ops []gpu.Op) {
		l := &opLog{}
		e.ctx.SetListener(l)
		host := e.host.Alloc(1024, "host")
		buf, err := e.ctx.Malloc(512, "dev")
		if err != nil {
			t.Fatal(err)
		}
		launch := func(ptr gpu.DevPtr, n int) error {
			_, err := e.ctx.LaunchKernel(KernelSpec{
				Name: "k", Duration: 20 * simtime.Microsecond, Stream: gpu.LegacyStream,
				Writes: []KernelWrite{{Ptr: ptr, Size: n, Seed: 3}},
			})
			return err
		}
		steps := []func() error{
			func() error { return e.ctx.MemcpyH2D(buf.Base(), host.Base(), 512) },
			func() error { return e.ctx.MemcpyH2D(buf.Base(), host.Base(), 513) },
			func() error { return launch(buf.Base(), 512) },
			func() error { return launch(buf.Base()+256, 512) },
			func() error { return e.ctx.MemcpyD2H(host.Base()+600, buf.Base(), 512) },
			func() error { return e.ctx.MemcpyAsyncD2H(host.Base(), buf.Base()+8, 512, gpu.LegacyStream) },
			func() error {
				e.host.Protect(host)
				defer e.host.Unprotect(host)
				return e.ctx.MemcpyD2H(host.Base(), buf.Base(), 16)
			},
			func() error { return e.ctx.MemsetDev(buf.Base(), 1, 600) },
			func() error { return e.ctx.MemcpyD2D(buf.Base(), buf.Base()+256, 256) },
			func() error { return e.ctx.MemcpyPeer(0, buf.Base(), 0, buf.Base()+256, 256) },
			func() error { return e.ctx.PrivateMemcpyD2H(host.Base(), buf.Base(), 1024) },
			func() error { return e.ctx.Free(buf) },
			func() error { return e.ctx.MemcpyH2D(buf.Base(), host.Base(), 8) },
		}
		for _, step := range steps {
			err := step()
			out = append(out, fmt.Sprintf("%v @ %v", err, e.clock.Now()))
		}
		return out, l.ops
	}
	want, wantOps := script(newEnv())
	got, gotOps := script(newTimingEnv())
	failures := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: timing-only %s, content %s", i, got[i], want[i])
		}
		if want[i][:5] != "<nil>" {
			failures++
		}
	}
	if failures < 6 {
		t.Fatalf("only %d steps failed; the script must exercise the error paths", failures)
	}
	if fmt.Sprint(gotOps) != fmt.Sprint(wantOps) {
		t.Fatalf("timing-only device ops %v, content %v", gotOps, wantOps)
	}

	// A timing-only context has no payloads to capture.
	defer func() {
		if recover() == nil {
			t.Fatal("payload capture accepted in a timing-only context")
		}
	}()
	newTimingEnv().ctx.SetPayloadCapture(true)
}
