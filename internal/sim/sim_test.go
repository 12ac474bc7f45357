package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dqalloc/internal/rng"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		s.At(tm, func() { got = append(got, tm) })
	}
	s.Run()
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 5 {
		t.Errorf("clock = %v, want 5", s.Now())
	}
}

func TestSchedulerSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var at float64 = -1
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Errorf("nested After fired at %v, want 15", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Scheduled() {
		t.Error("cancelled event still reports Scheduled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []float64
	var events []Handle
	times := []float64{9, 2, 7, 4, 5, 1, 8, 3, 6}
	for _, tm := range times {
		tm := tm
		events = append(events, s.At(tm, func() { got = append(got, tm) }))
	}
	// Cancel the events at times 4, 1, 8.
	for _, i := range []int{3, 5, 6} {
		if !s.Cancel(events[i]) {
			t.Fatalf("cancel event %d failed", i)
		}
	}
	s.Run()
	want := []float64{2, 3, 5, 6, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.RunUntil(10)
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (events at t<=10)", fired)
	}
	if s.Now() != 10 {
		t.Errorf("clock = %v, want 10", s.Now())
	}
	if s.Len() != 1 {
		t.Errorf("pending = %d, want 1", s.Len())
	}
	s.RunUntil(15)
	if s.Now() != 15 {
		t.Errorf("clock = %v, want 15 after empty RunUntil window", s.Now())
	}
}

// TestSchedulerRunUntilNonFiniteHorizon pins the horizon contract at
// the edges of float64: a NaN horizon panics and leaves the scheduler
// untouched, as a NaN event time does in At, and a +Inf horizon fires
// every pending event but leaves the clock at the last one it fired.
func TestSchedulerRunUntilNonFiniteHorizon(t *testing.T) {
	for _, impl := range []Impl{Calendar, Heap} {
		t.Run(impl.String(), func(t *testing.T) {
			s := NewImpl(impl)
			fired := 0
			// A chain that reschedules itself a few times, then ends.
			var tick Action
			tick = func() {
				if fired++; fired < 5 {
					s.After(2, tick)
				}
			}
			s.At(1, tick)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("RunUntil(NaN) did not panic")
					}
				}()
				s.RunUntil(math.NaN())
			}()
			if fired != 0 || s.Len() != 1 || s.Now() != 0 {
				t.Fatalf("RunUntil(NaN) changed state: fired %d, pending %d, now %v", fired, s.Len(), s.Now())
			}
			s.RunUntil(math.Inf(1))
			if fired != 5 || s.Len() != 0 {
				t.Errorf("RunUntil(+Inf) fired %d with %d pending, want 5 and 0", fired, s.Len())
			}
			if s.Now() != 9 {
				t.Errorf("clock = %v after RunUntil(+Inf), want 9 (the last fired event)", s.Now())
			}
			s.RunUntil(math.Inf(1))
			if s.Now() != 9 {
				t.Errorf("clock = %v after RunUntil(+Inf) on an empty calendar, want 9", s.Now())
			}
		})
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 after Stop", fired)
	}
	s.Run() // resumes
	if fired != 2 {
		t.Errorf("fired = %d, want 2 after resumed Run", fired)
	}
}

func TestAtPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(float64(i), func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

// TestHeapPropertyQuick is a property test: for any set of event times,
// firing order is the sorted order.
func TestHeapPropertyQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var got []float64
		for _, v := range raw {
			tm := float64(v)
			s.At(tm, func() { got = append(got, tm) })
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomCancelQuick mixes scheduling and cancellation and checks the
// survivors fire in sorted order.
func TestRandomCancelQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New()
		var got []float64
		var pending []Handle
		for i := 0; i < 200; i++ {
			tm := float64(r.Intn(1000))
			pending = append(pending, s.At(tm, func() { got = append(got, tm) }))
		}
		cancelled := 0
		for _, i := range r.Perm(len(pending))[:50] {
			if s.Cancel(pending[i]) {
				cancelled++
			}
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == 200-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCalendarInsertBehindCursor covers the inserts the calendar clamps
// into the cursor's slot: RunUntil's last popUntil finds a head beyond
// the horizon, having moved the cursor past empty buckets (or re-anchored
// the window at the overflow minimum) ahead of the clock, and the next
// insert can then belong to a bucket the cursor has already passed. Fire
// order must still match the heap's.
func TestCalendarInsertBehindCursor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pending []float64 // scheduled at time 0
		until   float64   // RunUntil horizon, before the next pending event
		insert  float64   // scheduled after RunUntil, behind the cursor
	}{
		{"advanced", []float64{1, 5}, 2, 3},
		{"re-anchored", []float64{100}, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fired [2][]float64
			for i, impl := range []Impl{Calendar, Heap} {
				s := NewImpl(impl)
				s.Observe(func(e *Event) { fired[i] = append(fired[i], e.time) })
				nop := func() {}
				for _, tm := range tc.pending {
					s.At(tm, nop)
				}
				s.RunUntil(tc.until)
				s.At(tc.insert, nop)
				auditScheduler(t, s)
				s.Run()
			}
			if !reflect.DeepEqual(fired[0], fired[1]) || !sort.Float64sAreSorted(fired[0]) {
				t.Errorf("calendar fired %v, heap %v", fired[0], fired[1])
			}
		})
	}
}

// TestCalendarPlaceBucketEnds drives one slot of a fresh calendar (width
// 1, origin 0, so every time in [0, 1) maps to slot 0) through each case
// of place: an empty slot, an append, an append on a same-time tie (the
// later seq goes after), a prepend, and an interior walk. After each
// insert it audits the calendar and checks where the event landed; at
// the end the fire order must match the heap's.
func TestCalendarPlaceBucketEnds(t *testing.T) {
	cal, ref := NewImpl(Calendar), NewImpl(Heap)
	var fired [2][]float64
	cal.Observe(func(e *Event) { fired[0] = append(fired[0], e.time) })
	ref.Observe(func(e *Event) { fired[1] = append(fired[1], e.time) })
	nop := func() {}
	for _, tc := range []struct {
		name string
		at   float64
		pos  int // index the new event must occupy in slot 0's list
	}{
		{"empty slot", 0.5, 0},
		{"append", 0.7, 1},
		{"append on a same-time tie", 0.7, 2},
		{"prepend", 0.2, 0},
		{"interior walk", 0.6, 2},
		{"interior walk on a same-time tie", 0.5, 2},
		{"interior walk next to the head", 0.3, 1},
	} {
		h := cal.At(tc.at, nop)
		ref.At(tc.at, nop)
		auditCalendar(t, cal.cal)
		pos := -1
		n := 0
		for e := cal.cal.slots[0].head; e != nil; e = e.next {
			if e == h.e {
				pos = n
			}
			n++
		}
		if pos != tc.pos {
			t.Errorf("%s: event at %v sits at position %d of %d, want %d", tc.name, tc.at, pos, n, tc.pos)
		}
	}
	if cal.cal.width != 1 || cal.cal.origin != 0 {
		t.Fatalf("calendar geometry moved (width %v, origin %v): the slot-0 positions above are meaningless",
			cal.cal.width, cal.cal.origin)
	}
	cal.Run()
	ref.Run()
	if !reflect.DeepEqual(fired[0], fired[1]) || !sort.Float64sAreSorted(fired[0]) {
		t.Errorf("calendar fired %v, heap %v", fired[0], fired[1])
	}
}

// mixedLoad keeps the lan64 workload's event mix pending on s: 1280 far
// events standing in for thinking terminals (Exp mean 350, Table 7's
// think time) and 200 near events standing in for in-service steps (Exp
// mean 1, about one disk page), each rescheduling itself when it fires.
func mixedLoad(s *Scheduler) {
	st := rng.NewStream(1)
	var far, near Action
	far = func() { s.After(st.Exp(350), far) }
	near = func() { s.After(st.Exp(1), near) }
	for i := 0; i < 1280; i++ {
		s.After(st.Exp(350), far)
	}
	for i := 0; i < 200; i++ {
		s.After(st.Exp(1), near)
	}
}

// TestCalendarCursorBucketShortUnderMixedTimescales pins the calendar's
// bucket geometry on the simulator's own event mix, without timing
// anything. A width sized from the spread of the pending set follows the
// far events and piles nearly every near event into the cursor's bucket,
// where each insert walks a long sorted list; a width sized from the
// head fire rate keeps the cursor's bucket to a few events.
func TestCalendarCursorBucketShortUnderMixedTimescales(t *testing.T) {
	const (
		warm  = 10000
		steps = 50000
		every = 100
	)
	s := New()
	mixedLoad(s)
	for i := 0; i < warm; i++ {
		s.Step()
	}
	c := s.cal
	total := 0
	for i := 0; i < steps; i++ {
		s.Step()
		if i%every == 0 {
			c.peek()
			for e := c.slots[c.cur&c.mask].head; e != nil; e = e.next {
				total++
			}
		}
	}
	if mean := float64(total) / (steps / every); mean > 8 {
		t.Errorf("cursor bucket holds %.1f events on average, want <= 8 (width %g, %d slots)",
			mean, c.width, c.nb)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	for _, impl := range []Impl{Calendar, Heap} {
		b.Run(impl.String(), func(b *testing.B) {
			s := NewImpl(impl)
			r := rand.New(rand.NewSource(1))
			// Keep a rolling window of 1000 pending events.
			var schedule func()
			n := 0
			schedule = func() {
				n++
				if n < b.N {
					s.After(r.Float64(), schedule)
				}
			}
			b.ResetTimer()
			for i := 0; i < 1000 && n < b.N; i++ {
				s.After(r.Float64(), schedule)
			}
			s.Run()
		})
	}
}

// BenchmarkKernelChurnExp times one fired event of a 1024-event rolling
// window with exponential offsets, per implementation: the pure
// scheduler cost with no model around it.
func BenchmarkKernelChurnExp(b *testing.B) {
	for _, impl := range []Impl{Calendar, Heap} {
		b.Run(impl.String(), func(b *testing.B) {
			const window = 1024
			s := NewImpl(impl)
			st := rng.NewStream(1)
			var tick Action
			n := 0
			tick = func() {
				n++
				if n+window <= b.N {
					s.After(st.Exp(1), tick)
				}
			}
			b.ResetTimer()
			for i := 0; i < window && i < b.N; i++ {
				s.After(st.Exp(1), tick)
			}
			s.Run()
		})
	}
}

// BenchmarkKernelRunUntilMixed times one fired event of the same mix as
// BenchmarkKernelChurnMixed, driven through RunUntil in chunks of one
// time unit (about 200 events) as a model run drives it, rather than
// through Step. The last chunk may overshoot b.N by under one chunk.
func BenchmarkKernelRunUntilMixed(b *testing.B) {
	for _, impl := range []Impl{Calendar, Heap} {
		b.Run(impl.String(), func(b *testing.B) {
			s := NewImpl(impl)
			mixedLoad(s)
			s.RunUntil(100)
			end := s.Fired() + uint64(b.N)
			b.ResetTimer()
			for s.Fired() < end {
				s.RunUntil(s.Now() + 1)
			}
		})
	}
}

// BenchmarkKernelChurnMixed times one fired event of the lan64-shaped
// mix (see mixedLoad) per op, per implementation, after the calendar
// has settled: 1480 pending events whose inserts land mostly near the
// head while most of the population waits far out.
func BenchmarkKernelChurnMixed(b *testing.B) {
	for _, impl := range []Impl{Calendar, Heap} {
		b.Run(impl.String(), func(b *testing.B) {
			s := NewImpl(impl)
			mixedLoad(s)
			for i := 0; i < 20000; i++ {
				s.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
