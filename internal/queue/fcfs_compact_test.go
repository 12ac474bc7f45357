package queue

import (
	"testing"

	"dqalloc/internal/sim"
)

// These tests pin the FCFS head-index queue: completions advance a head
// index and an arrival moves the live jobs down only when the slice is
// full and at least half dead, so order, removal and draining must look
// exactly as with a shifted slice.

// fcfsRig is an FCFS server of int jobs recording completion order.
func fcfsRig() (*sim.Scheduler, *FCFS[int], *[]int) {
	sched := sim.New()
	done := new([]int)
	f := NewFCFS[int](sched, func(j int) { *done = append(*done, j) })
	return sched, f, done
}

// step fires events until the server has completed n more jobs.
func step(t *testing.T, sched *sim.Scheduler, done *[]int, n int) {
	t.Helper()
	want := len(*done) + n
	for len(*done) < want {
		if !sched.Step() {
			t.Fatalf("scheduler ran dry after %d of %d completions", len(*done), want)
		}
	}
}

func TestFCFSOrderAcrossCompaction(t *testing.T) {
	sched, f, done := fcfsRig()
	next := 0
	for ; next < 8; next++ {
		f.Enqueue(next, 1)
	}
	compactions, peak := 0, f.QueueLen()
	// Interleave arrivals with completions so the live window slides
	// through the slice, compacting repeatedly, while the queue never
	// empties.
	for round := 0; round < 20; round++ {
		step(t, sched, done, 1)
		if round%3 != 2 {
			before := f.head
			f.Enqueue(next, 1)
			next++
			if f.head < before {
				compactions++
			}
		}
		peak = max(peak, f.QueueLen())
		if cap(f.queue) > 4*peak {
			t.Fatalf("round %d: %d slots for at most %d jobs", round, cap(f.queue), peak)
		}
	}
	sched.Run()
	if compactions == 0 {
		t.Fatal("the live window never compacted")
	}
	if len(*done) != next {
		t.Fatalf("%d completions, want %d", len(*done), next)
	}
	for i, j := range *done {
		if j != i {
			t.Fatalf("completion %d is job %d: FIFO order broken (%v)", i, j, *done)
		}
	}
	if f.QueueLen() != 0 || f.head != 0 || len(f.queue) != 0 {
		t.Fatalf("idle server keeps head %d, %d slots", f.head, len(f.queue))
	}
}

// TestFCFSRemoveAroundCompaction removes a queued job and the job in
// service once before and once after the live window has moved.
func TestFCFSRemoveAroundCompaction(t *testing.T) {
	sched, f, done := fcfsRig()
	for j := 0; j < 8; j++ {
		f.Enqueue(j, 1)
	}
	if cap(f.queue) != 8 {
		t.Skipf("slice capacity %d after 8 arrivals; the test assumes 8", cap(f.queue))
	}
	// Before compaction: a queued job at head 0, then the job in service
	// at a non-zero head, which starts the next one.
	if _, ok := f.RemoveFunc(func(j int) bool { return j == 3 }); !ok {
		t.Fatal("queued job 3 not found")
	}
	step(t, sched, done, 2) // 0, 1 complete
	if f.head != 2 {
		t.Fatalf("head %d, want 2", f.head)
	}
	if _, ok := f.RemoveFunc(func(j int) bool { return j == 2 }); !ok {
		t.Fatal("in-service job 2 not found")
	}
	if !f.Busy() || f.QueueLen() != 4 {
		t.Fatalf("after in-service removal: busy %v, len %d, want true, 4", f.Busy(), f.QueueLen())
	}
	step(t, sched, done, 1) // 4 completes: head 4 of 7 slots
	f.Enqueue(8, 1)         // fills the slice
	f.Enqueue(9, 1)         // full and half dead: compacts
	if f.head != 0 || f.QueueLen() != 5 {
		t.Fatalf("after compaction: head %d, len %d, want 0, 5", f.head, f.QueueLen())
	}
	// After compaction: remove a queued job and the one in service.
	if _, ok := f.RemoveFunc(func(j int) bool { return j == 9 }); !ok {
		t.Fatal("queued job 9 not found")
	}
	if _, ok := f.RemoveFunc(func(j int) bool { return j == 5 }); !ok {
		t.Fatal("in-service job 5 not found")
	}
	if _, ok := f.RemoveFunc(func(j int) bool { return j == 4 }); ok {
		t.Fatal("completed job 4 still removable")
	}
	sched.Run()
	want := []int{0, 1, 4, 6, 7, 8}
	if len(*done) != len(want) {
		t.Fatalf("completions %v, want %v", *done, want)
	}
	for i := range want {
		if (*done)[i] != want[i] {
			t.Fatalf("completions %v, want %v", *done, want)
		}
	}
}

func TestFCFSDrainAfterCompaction(t *testing.T) {
	sched, f, done := fcfsRig()
	for j := 0; j < 8; j++ {
		f.Enqueue(j, 1)
	}
	step(t, sched, done, 5)
	f.Enqueue(8, 1)
	got := f.Drain()
	want := []int{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	if f.QueueLen() != 0 || f.Busy() {
		t.Fatalf("drained server: len %d busy %v", f.QueueLen(), f.Busy())
	}
	for i, e := range f.queue[:cap(f.queue)] {
		if e.job != 0 {
			t.Fatalf("slot %d still holds job %d after Drain", i, e.job)
		}
	}
	// The server restarts cleanly.
	f.Enqueue(9, 1)
	sched.Run()
	if last := (*done)[len(*done)-1]; last != 9 {
		t.Fatalf("restart completed job %d, want 9", last)
	}
}
