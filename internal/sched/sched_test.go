package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"diogenes/internal/obs"
)

// TestNewWorkerCounts is the table-driven contract for pool construction:
// negative widths are rejected, zero selects GOMAXPROCS, and positive
// widths are taken literally.
func TestNewWorkerCounts(t *testing.T) {
	tests := []struct {
		name    string
		workers int
		wantErr bool
		want    func(got int) bool
	}{
		{"negative", -1, true, nil},
		{"very negative", -1 << 20, true, nil},
		{"zero defaults to GOMAXPROCS", 0, false, func(got int) bool { return got >= 1 }},
		{"one", 1, false, func(got int) bool { return got == 1 }},
		{"many", 64, false, func(got int) bool { return got == 64 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := New(tt.workers)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("New(%d) accepted", tt.workers)
				}
				return
			}
			if err != nil {
				t.Fatalf("New(%d): %v", tt.workers, err)
			}
			if !tt.want(p.Workers()) {
				t.Fatalf("New(%d).Workers() = %d", tt.workers, p.Workers())
			}
		})
	}
}

// TestRunErrorPaths is the table-driven contract for failure handling:
// worker panics become errors, a nil function is an error, and the
// earliest submitted failure's error is what Run returns, whichever task
// finished first.
func TestRunErrorPaths(t *testing.T) {
	boom := errors.New("boom")
	late := errors.New("late")
	tests := []struct {
		name     string
		tasks    []Task
		checkErr func(t *testing.T, err error)
		checkRes func(t *testing.T, res []Result)
	}{
		{
			name:  "no tasks",
			tasks: nil,
			checkErr: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("empty run failed: %v", err)
				}
			},
		},
		{
			name: "plain error propagates",
			tasks: []Task{
				{Name: "ok", Fn: func(context.Context) error { return nil }},
				{Name: "bad", Fn: func(context.Context) error { return boom }},
			},
			checkErr: func(t *testing.T, err error) {
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want %v", err, boom)
				}
			},
			checkRes: func(t *testing.T, res []Result) {
				if res[0].Err != nil {
					t.Errorf("ok task failed: %v", res[0].Err)
				}
				if !errors.Is(res[1].Err, boom) {
					t.Errorf("bad task err = %v", res[1].Err)
				}
			},
		},
		{
			// The first task fails only after the second one's failure has
			// cancelled the run, so it is the last to finish.
			name: "earliest submitted failure wins",
			tasks: []Task{
				{Name: "fails-last", Fn: func(ctx context.Context) error { <-ctx.Done(); return late }},
				{Name: "fails-first", Fn: func(context.Context) error { return boom }},
			},
			checkErr: func(t *testing.T, err error) {
				if !errors.Is(err, late) {
					t.Fatalf("err = %v, want %v", err, late)
				}
			},
		},
		{
			name: "panic is contained",
			tasks: []Task{
				{Name: "explodes", Fn: func(context.Context) error { panic("kaboom") }},
			},
			checkErr: func(t *testing.T, err error) {
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %T %v, want *PanicError", err, err)
				}
				if pe.Task != "explodes" || pe.Value != "kaboom" {
					t.Fatalf("panic error = %+v", pe)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("panic stack not captured")
				}
			},
		},
		{
			name: "nil function rejected",
			tasks: []Task{
				{Name: "empty"},
			},
			checkErr: func(t *testing.T, err error) {
				if err == nil {
					t.Fatal("nil Fn accepted")
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := New(2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background(), tt.tasks...)
			if len(res) != len(tt.tasks) {
				t.Fatalf("results = %d, want %d", len(res), len(tt.tasks))
			}
			tt.checkErr(t, err)
			if tt.checkRes != nil {
				tt.checkRes(t, res)
			}
		})
	}
}

// TestFirstErrorCancelsRemaining proves first-error cancellation: with one
// worker, a failure in the first task must skip every queued task, and the
// skipped results must carry ErrSkipped.
func TestFirstErrorCancelsRemaining(t *testing.T) {
	p, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	ran := 0
	tasks := []Task{
		{Name: "fails", Fn: func(context.Context) error { ran++; return boom }},
		{Name: "skipped-1", Fn: func(context.Context) error { ran++; return nil }},
		{Name: "skipped-2", Fn: func(context.Context) error { ran++; return nil }},
	}
	res, runErr := p.Run(context.Background(), tasks...)
	if !errors.Is(runErr, boom) {
		t.Fatalf("run err = %v", runErr)
	}
	if ran != 1 {
		t.Fatalf("tasks executed = %d, want 1", ran)
	}
	for _, r := range res[1:] {
		if !errors.Is(r.Err, ErrSkipped) {
			t.Errorf("task %s err = %v, want ErrSkipped", r.Name, r.Err)
		}
	}
}

// TestParentCancellationSkips proves an already-cancelled parent context
// prevents any task from starting.
func TestParentCancellationSkips(t *testing.T) {
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	res, _ := p.Run(ctx, Task{Name: "x", Fn: func(context.Context) error {
		ran.Add(1)
		return nil
	}})
	if ran.Load() != 0 {
		t.Fatal("task ran under a cancelled parent")
	}
	if !errors.Is(res[0].Err, ErrSkipped) {
		t.Fatalf("err = %v, want ErrSkipped", res[0].Err)
	}
}

// TestResultsKeepSubmissionOrder proves results are ordered by submission,
// not completion: t0 blocks until the last task has finished, so it
// finishes after it, and must still come first in the slice.
// It also covers the metrics surface that replaced per-result timing: every
// executed task lands in the sched/task_wall_ns histogram.
func TestResultsKeepSubmissionOrder(t *testing.T) {
	const n = 16
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	p.SetMetrics(m)
	lastDone := make(chan struct{})
	var finished []int
	var mu sync.Mutex
	var tasks []Task
	for i := 0; i < n; i++ {
		i := i
		tasks = append(tasks, Task{
			Name: fmt.Sprintf("t%d", i),
			Fn: func(context.Context) error {
				if i == 0 {
					<-lastDone
				}
				mu.Lock()
				finished = append(finished, i)
				mu.Unlock()
				if i == n-1 {
					close(lastDone)
				}
				return nil
			},
		})
	}
	res, runErr := p.Run(context.Background(), tasks...)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if slices.Index(finished, 0) < slices.Index(finished, n-1) {
		t.Fatalf("completion order %v: t0 finished before t%d", finished, n-1)
	}
	for i, r := range res {
		if r.Name != fmt.Sprintf("t%d", i) {
			t.Fatalf("result %d = %s", i, r.Name)
		}
	}
	if got := m.Histogram("sched/task_wall_ns").Count(); got != 16 {
		t.Fatalf("task_wall_ns count = %d, want 16", got)
	}
	if got := m.Counter("sched/tasks_run").Value(); got != 16 {
		t.Fatalf("tasks_run = %d, want 16", got)
	}
	if util := m.Gauge("sched/utilization_pct").Value(); util <= 0 || util > 100 {
		t.Fatalf("utilization_pct = %g, want within (0, 100]", util)
	}
}

// TestConcurrencyBound proves the pool runs exactly as many tasks at once
// as its width allows: the first tasks wait at a gate that opens only when
// width of them are in flight, so the pool must reach its width, and must
// never exceed it.
func TestConcurrencyBound(t *testing.T) {
	const width = 3
	p, err := New(width)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inFlight, peak := 0, 0
	gate, open := make(chan struct{}), false
	var tasks []Task
	for i := 0; i < 24; i++ {
		tasks = append(tasks, Task{Name: fmt.Sprintf("t%d", i), Fn: func(context.Context) error {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			if inFlight == width && !open {
				open = true
				close(gate)
			}
			mu.Unlock()
			<-gate
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}})
	}
	if _, err := p.Run(context.Background(), tasks...); err != nil {
		t.Fatal(err)
	}
	if peak != width {
		t.Fatalf("peak concurrency %d, want pool width %d", peak, width)
	}
}

// TestGoMetrics exercises the fire-and-join helper, including its
// worker-count validation path.
func TestGoMetrics(t *testing.T) {
	var n atomic.Int32
	err := GoMetrics(context.Background(), 2, nil,
		func(context.Context) error { n.Add(1); return nil },
		func(context.Context) error { n.Add(1); return nil },
	)
	if err != nil || n.Load() != 2 {
		t.Fatalf("GoMetrics: err=%v ran=%d", err, n.Load())
	}
	if err := GoMetrics(context.Background(), -2, nil, func(context.Context) error { return nil }); err == nil {
		t.Fatal("negative width accepted")
	}
}
