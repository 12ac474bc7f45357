package sim

import (
	"runtime"
	"testing"

	"dqalloc/internal/race"
)

// The tests in this file pin the kernel's steady-state allocation
// behavior: once the free list is warm, scheduling and firing events
// allocates nothing — under the default calendar queue and the
// reference heap alike. A regression here (a closure creeping back into
// a hot path, an Event field breaking the pool, a calendar rebuild
// dropping its backing arrays) multiplies total simulation allocations
// by orders of magnitude, so the budgets are exact zeros, not
// thresholds.
//
// Race-detector instrumentation adds its own allocations, so the
// numeric assertions are skipped under -race (the race CI pass still
// compiles and executes the measured code).

var allocImpls = []Impl{Calendar, Heap}

// warmScheduler returns a scheduler of the given implementation whose
// free list and future-event list have capacity for at least n
// simultaneous events.
func warmScheduler(impl Impl, n int) *Scheduler {
	s := NewImpl(impl)
	nop := func() {}
	for i := 0; i < n; i++ {
		s.At(float64(i), nop)
	}
	s.Run()
	return s
}

func TestAtStepSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, impl := range allocImpls {
		t.Run(impl.String(), func(t *testing.T) {
			s := warmScheduler(impl, 64)
			nop := func() {}
			avg := testing.AllocsPerRun(1000, func() {
				s.At(s.Now()+1, nop)
				s.Step()
			})
			if avg != 0 {
				t.Errorf("At+Step steady state allocates %v objects/op, want 0", avg)
			}
		})
	}
}

func TestAfterStepSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, impl := range allocImpls {
		t.Run(impl.String(), func(t *testing.T) {
			s := warmScheduler(impl, 64)
			nop := func() {}
			avg := testing.AllocsPerRun(1000, func() {
				s.After(1, nop)
				s.Step()
			})
			if avg != 0 {
				t.Errorf("After+Step steady state allocates %v objects/op, want 0", avg)
			}
		})
	}
}

func TestCancelSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, impl := range allocImpls {
		t.Run(impl.String(), func(t *testing.T) {
			s := warmScheduler(impl, 64)
			nop := func() {}
			avg := testing.AllocsPerRun(1000, func() {
				h := s.After(1, nop)
				if !s.Cancel(h) {
					t.Fatal("cancel of live handle failed")
				}
			})
			if avg != 0 {
				t.Errorf("After+Cancel steady state allocates %v objects/op, want 0", avg)
			}
		})
	}
}

func TestDigestedStepSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, impl := range allocImpls {
		t.Run(impl.String(), func(t *testing.T) {
			// The digest hook must stay allocation-free too: it is enabled
			// for every golden-digest run.
			s := warmScheduler(impl, 64)
			s.EnableDigest()
			nop := func() {}
			avg := testing.AllocsPerRun(1000, func() {
				h := s.After(1, nop)
				h.SetKind(0x7f)
				s.Step()
			})
			if avg != 0 {
				t.Errorf("digested Step steady state allocates %v objects/op, want 0", avg)
			}
		})
	}
}

// TestRunUntilSteadyStateAllocs pins the loop every model run spends its
// time in: once warm, firing the lan64-shaped mix (see mixedLoad)
// through RunUntil chunks allocates nothing per fired event.
func TestRunUntilSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, impl := range allocImpls {
		t.Run(impl.String(), func(t *testing.T) {
			s := NewImpl(impl)
			mixedLoad(s)
			s.RunUntil(100)
			before := s.Fired()
			avg := testing.AllocsPerRun(100, func() {
				s.RunUntil(s.Now() + 1)
			})
			if per := avg / (float64(s.Fired()-before) / 101); per != 0 {
				t.Errorf("RunUntil steady state allocates %v objects per fired event, want 0", per)
			}
		})
	}
}

// TestCalendarResizeOscillationAllocs forces the calendar queue across
// its slot-resize boundaries in both directions — fill from empty to
// 512 pending (grow rebuilds at count > 2·nb: 17, 33, …, 257) then
// drain back to empty (shrink rebuilds at count < nb/2) — and asserts
// the cycle allocates nothing once the backing arrays are warm.
// rebuild() reuses the slots, scratch, and overflow arrays across
// resizes precisely so population oscillation around a boundary cannot
// turn into allocation churn.
func TestCalendarResizeOscillationAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := NewImpl(Calendar)
	nop := func() {}
	cycle := func() {
		for i := 0; i < 512; i++ {
			s.After(1+float64(i%7), nop)
		}
		for i := 0; i < 512; i++ {
			s.Step()
		}
	}
	cycle() // warm every backing array at its maximum extent
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("grow/shrink oscillation allocates %v objects/cycle once warm, want 0", avg)
	}
}

// mallocs counts heap allocations performed by a single invocation of f,
// the way testing.AllocsPerRun does but without its warm-up call — the
// point here is to observe the cold path.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCalendarGrowthAllocsOnlyAtResize pins where the calendar's cold
// path is allowed to allocate: growing a fresh scheduler to 4096
// pending events may allocate only at event-slab boundaries (one slab
// per 64 records) and slot-array resizes (a handful per rebuild) —
// far below one allocation per event — and once the slabs, free list,
// slots, scratch, and overflow arrays are warm at the workload's
// maximum extent, regrowing after a full drain must allocate nothing at
// all even though it crosses every resize boundary again. (Two warm-up
// cycles, not one: the post-drain calendar geometry — width, origin —
// differs from the fresh one, so the second pass can ratchet a backing
// array a few elements larger; from the third pass on the capacities
// are a fixed point.)
func TestCalendarGrowthAllocsOnlyAtResize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	s := NewImpl(Calendar)
	nop := func() {}
	grow := func() {
		for i := 0; i < 4096; i++ {
			s.After(1+float64(i%7), nop)
		}
	}
	fresh := mallocs(grow)
	// 4096/64 = 64 slab allocations plus ~9 grow rebuilds; 256 leaves
	// generous room for append growth while still proving allocations
	// are per-resize, not per-event.
	if fresh == 0 || fresh > 256 {
		t.Errorf("cold growth to 4096 pending allocated %d objects, want (0, 256]", fresh)
	}
	for s.Step() {
	}
	grow() // second warm-up cycle: let capacities reach their fixed point
	for s.Step() {
	}
	if regrow := mallocs(grow); regrow != 0 {
		t.Errorf("warm regrowth allocated %d objects crossing the same resize boundaries, want 0", regrow)
	}
}
