package loadinfo

import (
	"testing"

	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

func TestTableCounts(t *testing.T) {
	tb := NewTable(3)
	tb.Assign(0, workload.IOBound)
	tb.Assign(0, workload.CPUBound)
	tb.Assign(1, workload.IOBound)
	if tb.NumQueries(0) != 2 || tb.NumIOQueries(0) != 1 || tb.NumCPUQueries(0) != 1 {
		t.Errorf("site 0 counts = %d/%d/%d, want 2/1/1",
			tb.NumQueries(0), tb.NumIOQueries(0), tb.NumCPUQueries(0))
	}
	if tb.NumQueries(2) != 0 {
		t.Errorf("idle site count = %d, want 0", tb.NumQueries(2))
	}
	if tb.Total() != 3 {
		t.Errorf("Total = %d, want 3", tb.Total())
	}
	tb.Complete(0, workload.IOBound)
	if tb.NumIOQueries(0) != 0 || tb.NumQueries(0) != 1 {
		t.Error("Complete did not decrement")
	}
}

func TestTablePanicsOnUnderflow(t *testing.T) {
	tb := NewTable(1)
	defer func() {
		if recover() == nil {
			t.Error("completion without assignment did not panic")
		}
	}()
	tb.Complete(0, workload.IOBound)
}

func TestTablePanicsOnInvalidBound(t *testing.T) {
	tb := NewTable(1)
	defer func() {
		if recover() == nil {
			t.Error("invalid bound did not panic")
		}
	}()
	tb.Assign(0, workload.Bound(0))
}

func TestBroadcasterStaleness(t *testing.T) {
	s := sim.New()
	tb := NewTable(2)
	b, err := NewBroadcaster(s, tb, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Changes after the initial snapshot are invisible until the next tick.
	s.At(1, func() { tb.Assign(0, workload.IOBound) })
	s.At(5, func() {
		if b.NumQueries(0) != 0 {
			t.Errorf("stale view at t=5 sees %d, want 0", b.NumQueries(0))
		}
		if tb.NumQueries(0) != 1 {
			t.Errorf("ground truth at t=5 = %d, want 1", tb.NumQueries(0))
		}
	})
	s.At(11, func() {
		if b.NumQueries(0) != 1 || b.NumIOQueries(0) != 1 {
			t.Errorf("post-broadcast view = %d/%d, want 1/1",
				b.NumQueries(0), b.NumIOQueries(0))
		}
	})
	s.RunUntil(12)
	b.Stop()
}

func TestBroadcasterInitialSnapshot(t *testing.T) {
	s := sim.New()
	tb := NewTable(1)
	tb.Assign(0, workload.CPUBound)
	b, err := NewBroadcaster(s, tb, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if b.NumCPUQueries(0) != 1 {
		t.Errorf("initial snapshot missing assignment: %d", b.NumCPUQueries(0))
	}
	if b.Period() != 5 {
		t.Errorf("Period = %v, want 5", b.Period())
	}
}

func TestBroadcasterStopCancelsTicks(t *testing.T) {
	s := sim.New()
	tb := NewTable(1)
	b, err := NewBroadcaster(s, tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.At(3, func() {
		b.Stop()
		tb.Assign(0, workload.IOBound)
	})
	s.Run() // terminates because the recurring tick is cancelled
	if b.NumQueries(0) != 0 {
		t.Error("stopped broadcaster kept refreshing")
	}
}

func TestBroadcasterRejectsBadPeriod(t *testing.T) {
	s := sim.New()
	tb := NewTable(1)
	if _, err := NewBroadcaster(s, tb, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewBroadcaster(s, tb, -1); err == nil {
		t.Error("negative period accepted")
	}
}

func TestWorkTracking(t *testing.T) {
	tb := NewTable(2)
	tb.AssignWork(0, 10, 20)
	tb.AssignWork(0, 1, 2)
	tb.AssignWork(1, 5, 5)
	if tb.CPUWork(0) != 11 || tb.IOWork(0) != 22 {
		t.Errorf("site 0 work = %v/%v, want 11/22", tb.CPUWork(0), tb.IOWork(0))
	}
	tb.CompleteWork(0, 10, 20)
	if tb.CPUWork(0) != 1 || tb.IOWork(0) != 2 {
		t.Errorf("post-complete work = %v/%v, want 1/2", tb.CPUWork(0), tb.IOWork(0))
	}
	if tb.CPUWork(1) != 5 {
		t.Errorf("site 1 untouched work = %v", tb.CPUWork(1))
	}
}

func TestWorkUnderflowPanics(t *testing.T) {
	tb := NewTable(1)
	defer func() {
		if recover() == nil {
			t.Error("work underflow did not panic")
		}
	}()
	tb.CompleteWork(0, 1, 0)
}

func TestBroadcasterSnapshotsWork(t *testing.T) {
	s := sim.New()
	tb := NewTable(1)
	b, err := NewBroadcaster(s, tb, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	s.At(1, func() { tb.AssignWork(0, 7, 3) })
	s.At(5, func() {
		if b.CPUWork(0) != 0 || b.IOWork(0) != 0 {
			t.Error("stale view leaked fresh work")
		}
	})
	s.At(11, func() {
		if b.CPUWork(0) != 7 || b.IOWork(0) != 3 {
			t.Errorf("post-broadcast work = %v/%v, want 7/3", b.CPUWork(0), b.IOWork(0))
		}
	})
	s.RunUntil(12)
}

func TestNewTablePanicsOnNoSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(0) did not panic")
		}
	}()
	NewTable(0)
}

// checkReadCounts fails unless v's bulk read of a site list — out of
// order, with repeats — equals its per-site reads.
func checkReadCounts(t *testing.T, name string, v interface {
	View
	CountReader
}, n int) {
	t.Helper()
	var sites []int
	for s := n - 1; s >= 0; s-- {
		sites = append(sites, s, (3*s)%n)
	}
	io, cpu, total := make([]int, len(sites)), make([]int, len(sites)), make([]int, len(sites))
	v.ReadCounts(sites, io, cpu, total)
	for i, s := range sites {
		if io[i] != v.NumIOQueries(s) || cpu[i] != v.NumCPUQueries(s) || total[i] != v.NumQueries(s) {
			t.Fatalf("%s site %d: ReadCounts %d/%d/%d, per-site reads %d/%d/%d", name, s,
				io[i], cpu[i], total[i], v.NumIOQueries(s), v.NumCPUQueries(s), v.NumQueries(s))
		}
	}
}

// TestReadCountsMatchesPerSiteReads: the bulk read returns exactly the
// per-site counts of the listed sites, on the ground-truth table and on a stale broadcast
// snapshot of it.
func TestReadCountsMatchesPerSiteReads(t *testing.T) {
	const n = 5
	s := sim.New()
	tb := NewTable(n)
	b, err := NewBroadcaster(s, tb, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		bound := workload.IOBound
		if i%3 == 0 {
			bound = workload.CPUBound
		}
		site := (i * 7) % n
		s.At(float64(i), func() { tb.Assign(site, bound) })
	}
	for _, at := range []float64{5, 15, 25, 39.5} {
		s.At(at, func() {
			checkReadCounts(t, "table", tb, n)
			checkReadCounts(t, "broadcaster", b, n)
		})
	}
	s.RunUntil(40)
	b.Stop()
}
