package trace

import (
	"fmt"
	"sync"
	"testing"
)

func TestArenaPointersStableAcrossGrowth(t *testing.T) {
	a := NewArena()
	var ptrs []*Record
	for i := 0; i < 3*slabLen+7; i++ {
		r := a.Alloc()
		r.Seq = int64(i)
		ptrs = append(ptrs, r)
	}
	// Every pointer handed out must still address its record: annotations
	// written late must land in the stored record (the grown-slice design
	// could relocate earlier records on append).
	for i, p := range ptrs {
		if p.Seq != int64(i) {
			t.Fatalf("record %d relocated: Seq=%d", i, p.Seq)
		}
	}
	if a.Len() != len(ptrs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(ptrs))
	}
}

func TestArenaFinishFlattensInOrder(t *testing.T) {
	a := NewArena()
	const n = slabLen + 13
	for i := 0; i < n; i++ {
		a.Alloc().Seq = int64(i)
	}
	if a.Bytes() != 2*slabLen*RecordSize {
		t.Fatalf("Bytes = %d, want %d", a.Bytes(), 2*slabLen*RecordSize)
	}
	out := a.Finish()
	if len(out) != n || cap(out) != n {
		t.Fatalf("Finish: len=%d cap=%d, want exactly %d", len(out), cap(out), n)
	}
	for i := range out {
		if out[i].Seq != int64(i) {
			t.Fatalf("out[%d].Seq = %d", i, out[i].Seq)
		}
	}
	if a.Len() != 0 || a.Bytes() != 0 {
		t.Fatalf("arena not reset after Finish: len=%d bytes=%d", a.Len(), a.Bytes())
	}
}

func TestArenaFinishEmpty(t *testing.T) {
	a := NewArena()
	if out := a.Finish(); out != nil {
		t.Fatalf("empty Finish returned %v", out)
	}
}

func TestArenaRecycledSlabsAreZeroed(t *testing.T) {
	a := NewArena()
	r := a.Alloc()
	r.Func = "cuMemcpyDtoH_v2"
	r.Hash = "deadbeef"
	a.Finish()
	// The next run that borrows this slab must see zeroed slots, not the
	// previous run's data.
	b := NewArena()
	for i := 0; i < 4*slabLen; i++ {
		got := b.Alloc()
		if got.Func != "" || got.Hash != "" || got.Stack != nil || got.Seq != 0 {
			t.Fatalf("recycled slot %d not zeroed: %+v", i, got)
		}
	}
}

func TestArenaConcurrentRunsShareNothing(t *testing.T) {
	// Two goroutines each drive their own arena through the shared pool;
	// the flattened outputs must be entirely their own records. Run with
	// -race this also proves the pool handoff is clean.
	var wg sync.WaitGroup
	outs := make([][]Record, 8)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := NewArena()
			n := slabLen*2 + g*17
			for i := 0; i < n; i++ {
				r := a.Alloc()
				r.Seq = int64(i)
				r.Func = fmt.Sprintf("g%d", g)
			}
			outs[g] = a.Finish()
		}(g)
	}
	wg.Wait()
	for g, out := range outs {
		want := fmt.Sprintf("g%d", g)
		for i, r := range out {
			if r.Func != want || r.Seq != int64(i) {
				t.Fatalf("goroutine %d record %d: %+v", g, i, r)
			}
		}
	}
}
