package sim

import (
	"math"
	"testing"
)

// FuzzSchedulerHeap drives the calendar-queue scheduler and the
// reference heap scheduler side by side through a random interleaving of
// At, After, Cancel, Step and RunUntil operations decoded from the fuzz
// input, checking after every operation that
//
//   - both future-event lists are structurally sound (auditScheduler:
//     heap order and index mapping for the heap; sorted bucket lists,
//     bucket/overflow routing, cursor and count bookkeeping for the
//     calendar queue),
//   - the two implementations agree operation for operation: identical
//     Cancel results, pending counts, clocks, and — via the fire
//     cross-check below — identical pop order,
//   - events fire in non-decreasing time order with FIFO tie-break
//     (ascending seq at equal times),
//   - handle liveness matches the model on both (Cancel succeeds
//     exactly once, fired events' handles go stale), and
//   - non-finite event times are rejected by panic without corrupting
//     either calendar.
//
// Scheduled times and RunUntil horizons are quantized to small integers
// so that same-instant collisions — the FIFO tie-break's interesting case
// — are common and a horizon often lands exactly on an event time, and
// every 16th delay lands far in the future to exercise the calendar
// queue's overflow heap and window migration. Long insert or drain runs
// in the input cross the calendar's slot-resize boundaries (count > 2·nb
// and count < nb/2), so rebuilds are covered by construction.
func FuzzSchedulerHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 3, 2, 0, 2, 1, 3, 3, 3, 3})
	f.Add([]byte{4, 0, 4, 3, 4})
	f.Add([]byte{1, 7, 1, 7, 1, 7, 2, 0, 2, 0, 3, 3})
	// Grow far past several resize boundaries, then drain back through
	// the shrink boundaries.
	grow := make([]byte, 0, 200)
	for i := 0; i < 60; i++ {
		grow = append(grow, 0, byte(i))
	}
	for i := 0; i < 60; i++ {
		grow = append(grow, 3)
	}
	f.Add(grow)
	// Far-future heavy: odd delay bytes ≥ 0x10 overflow the window.
	f.Add([]byte{0, 0x9f, 0, 0xaf, 0, 1, 3, 3, 3, 0, 0xff, 2, 0, 3})
	// Mixed timescales: a standing population of far-future events
	// (delay bytes ≡ 9 mod 16) under a long run of near inserts and
	// steps, so the cursor rolls through many windows and the far events
	// migrate in from overflow as it reaches them.
	mixed := make([]byte, 0, 700)
	for i := 0; i < 48; i++ {
		mixed = append(mixed, 0, byte(16*(i%16)+9))
	}
	for i := 0; i < 200; i++ {
		mixed = append(mixed, 1, byte(i%8), 3)
	}
	f.Add(mixed)
	// RunUntil chunks (op 5): horizons on an event time, between event
	// times, at the current time, and past a far-future event.
	f.Add([]byte{0, 2, 0, 3, 1, 3, 0, 0x19, 5, 2, 5, 0, 5, 1, 0, 1, 5, 0x19, 5, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		cal := New()
		ref := NewImpl(Heap)
		if cal.Impl() != Calendar || ref.Impl() != Heap {
			t.Fatal("implementation selection broken")
		}
		nop := func() {}
		var calLive, refLive []Handle
		lastTime := math.Inf(-1)
		var lastSeq uint64

		// The calendar scheduler's observer validates the global fire
		// order: time never decreases, and same-instant events fire in
		// scheduling order. The reference scheduler's observer records
		// its stream for the cross-check.
		var calFired, refFired []struct {
			time float64
			seq  uint64
		}
		cal.Observe(func(e *Event) {
			if e.time < lastTime {
				t.Fatalf("fired time %v after %v", e.time, lastTime)
			}
			if e.time == lastTime && e.seq <= lastSeq {
				t.Fatalf("FIFO tie-break violated at t=%v: seq %d after %d", e.time, e.seq, lastSeq)
			}
			lastTime = e.time
			lastSeq = e.seq
			if e.index >= 0 {
				t.Fatalf("fired event still claims list position %d", e.index)
			}
			calFired = append(calFired, struct {
				time float64
				seq  uint64
			}{e.time, e.seq})
		})
		ref.Observe(func(e *Event) {
			refFired = append(refFired, struct {
				time float64
				seq  uint64
			}{e.time, e.seq})
		})

		audit := func() {
			t.Helper()
			auditScheduler(t, cal)
			auditScheduler(t, ref)
			if cal.Len() != ref.Len() {
				t.Fatalf("calendar holds %d pending, heap %d", cal.Len(), ref.Len())
			}
			if cal.Now() != ref.Now() {
				t.Fatalf("clocks diverged: calendar %v, heap %v", cal.Now(), ref.Now())
			}
			if len(calFired) != len(refFired) {
				t.Fatalf("calendar fired %d events, heap %d", len(calFired), len(refFired))
			}
			for i := range calFired {
				if calFired[i] != refFired[i] {
					t.Fatalf("fire stream diverged at %d: calendar %+v, heap %+v",
						i, calFired[i], refFired[i])
				}
			}
			livePending := 0
			for i := range calLive {
				cs, rs := calLive[i].Scheduled(), refLive[i].Scheduled()
				if cs != rs {
					t.Fatalf("handle %d liveness diverged: calendar %v, heap %v", i, cs, rs)
				}
				if cs {
					livePending++
				}
			}
			if livePending != cal.Len() {
				t.Fatalf("%d live handles vs %d pending events", livePending, cal.Len())
			}
		}

		for i := 0; i < len(data); i++ {
			switch data[i] % 6 {
			case 0, 1: // schedule; quantized delay so time ties are common
				var d byte
				if i+1 < len(data) {
					i++
					d = data[i]
				}
				delay := float64(d % 8)
				if d%16 == 9 {
					// A far-future event: lands well beyond the calendar's
					// window, exercising overflow and migration.
					delay = 1000 + float64(d)
				}
				var ch, rh Handle
				if data[i]%2 == 0 {
					ch = cal.After(delay, nop)
					rh = ref.After(delay, nop)
				} else {
					ch = cal.At(cal.Now()+delay, nop)
					rh = ref.At(ref.Now()+delay, nop)
				}
				if !ch.Scheduled() || !rh.Scheduled() {
					t.Fatal("fresh handle not scheduled")
				}
				ch.SetKind(0x7f)
				rh.SetKind(0x7f)
				calLive = append(calLive, ch)
				refLive = append(refLive, rh)
			case 2: // cancel a (possibly stale) tracked handle on both
				if len(calLive) == 0 {
					continue
				}
				var idx byte
				if i+1 < len(data) {
					i++
					idx = data[i]
				}
				j := int(idx) % len(calLive)
				ch, rh := calLive[j], refLive[j]
				was := ch.Scheduled()
				cg, rg := cal.Cancel(ch), ref.Cancel(rh)
				if cg != rg {
					t.Fatalf("Cancel diverged: calendar %v, heap %v", cg, rg)
				}
				if cg != was {
					t.Fatalf("Cancel = %v on handle with Scheduled = %v", cg, was)
				}
				if ch.Scheduled() {
					t.Fatal("handle still scheduled after Cancel")
				}
				if cal.Cancel(ch) || ref.Cancel(rh) {
					t.Fatal("double Cancel succeeded")
				}
			case 3: // fire the earliest event on both
				before := cal.Len()
				cf, rf := cal.Step(), ref.Step()
				if cf != rf {
					t.Fatalf("Step diverged: calendar %v, heap %v", cf, rf)
				}
				if cf != (before > 0) {
					t.Fatalf("Step = %v with %d pending", cf, before)
				}
			case 4: // non-finite times must panic and leave no trace
				before := cal.Len()
				for _, s := range []*Scheduler{cal, ref} {
					for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
						func() {
							defer func() {
								if recover() == nil {
									t.Fatalf("At(%v) did not panic", bad)
								}
							}()
							s.At(bad, nop)
						}()
					}
				}
				if cal.Len() != before {
					t.Fatalf("rejected times changed pending count %d -> %d", before, cal.Len())
				}
			case 5: // fire every event up to a horizon on both
				var d byte
				if i+1 < len(data) {
					i++
					d = data[i]
				}
				h := float64(d % 8)
				if d%16 == 9 {
					h = 1000 + float64(d)
				}
				until := cal.Now() + h
				cal.RunUntil(until)
				ref.RunUntil(until)
				if cal.Now() != until {
					t.Fatalf("clock %v after RunUntil(%v)", cal.Now(), until)
				}
			}
			audit()
		}

		// Drain: everything left must fire, in order, exactly once, and
		// the two streams must stay identical to the end.
		remaining := cal.Len()
		for cal.Step() {
			if !ref.Step() {
				t.Fatal("heap drained before calendar")
			}
			remaining--
			audit()
		}
		if ref.Step() {
			t.Fatal("calendar drained before heap")
		}
		if remaining != 0 {
			t.Fatalf("drain fired %d fewer events than were pending", -remaining)
		}
		for i := range calLive {
			if calLive[i].Scheduled() || refLive[i].Scheduled() {
				t.Fatal("handle scheduled after drain")
			}
		}
	})
}
