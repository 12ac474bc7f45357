package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// diffProfile shapes one randomized differential workload. The delay
// generator controls the event-time distribution; the op weights
// control the schedule/cancel/step mix.
type diffProfile struct {
	name  string
	delay func(r *rand.Rand) float64
	// Op weights out of 100: schedule gets the remainder.
	cancelW, stepW int
}

var diffProfiles = []diffProfile{
	{
		// Smooth churn: a rolling window of uniformly spread events,
		// the calendar queue's design-point workload.
		name:    "uniform-churn",
		delay:   func(r *rand.Rand) float64 { return r.Float64() },
		cancelW: 10, stepW: 45,
	},
	{
		// Bursty: same-instant clusters (zero delay) punctuated by
		// jumps, so buckets hold long sorted runs and the FIFO
		// tie-break carries most of the ordering.
		name: "bursty",
		delay: func(r *rand.Rand) float64 {
			if r.Intn(4) != 0 {
				return 0
			}
			return float64(1 + r.Intn(8))
		},
		cancelW: 10, stepW: 40,
	},
	{
		// Far-future heavy: a third of the events land orders of
		// magnitude beyond the bucket span, living in the overflow
		// heap until the window reaches them.
		name: "far-future",
		delay: func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return 1e4 * (1 + r.Float64())
			}
			return r.Float64()
		},
		cancelW: 10, stepW: 40,
	},
	{
		// Equal-timestamp heavy: delays quantized to four values, so
		// nearly every comparison ties on time and resolves by seq.
		name: "equal-timestamp",
		delay: func(r *rand.Rand) float64 {
			return float64(r.Intn(4))
		},
		cancelW: 10, stepW: 40,
	},
	{
		// Cancel-heavy: most scheduled events are torn back out,
		// hammering mid-list unlinks, overflow removes, and the
		// free-list recycling path on both implementations.
		name: "cancel-heavy",
		delay: func(r *rand.Rand) float64 {
			if r.Intn(8) == 0 {
				return 1e5
			}
			return float64(r.Intn(16))
		},
		cancelW: 40, stepW: 25,
	},
	{
		// Mixed timescales, the simulator's own shape: most pending
		// events sit far out (terminal think times, Exp mean 350) while
		// most inserts land near the head (service steps, Exp mean 1), so
		// the cursor rolls through many windows and far events migrate in
		// from overflow as it goes.
		name: "mixed-timescale",
		delay: func(r *rand.Rand) float64 {
			if r.Intn(10) == 0 {
				return 350 * r.ExpFloat64()
			}
			return r.ExpFloat64()
		},
		cancelW: 10, stepW: 40,
	},
}

// TestDifferentialCalendarVsHeap drives the calendar-queue and
// binary-heap schedulers side by side through randomized workloads and
// asserts they are observationally identical: same fire stream (time
// and seq of every pop), same clocks, same pending counts, same Cancel
// results, same handle liveness, and same free-list population. The
// profiles cover the distributions the calendar's width heuristics care
// about — bursty, far-future, equal-timestamp-heavy, cancel-heavy,
// mixed-timescale — precisely because those heuristics must never affect order, only
// cost. Structural audits (auditScheduler) run periodically and at the
// end of each phase; running them on every op is quadratic and is the
// fuzz target's job.
func TestDifferentialCalendarVsHeap(t *testing.T) {
	const (
		ops      = 4000
		auditGap = 128
	)
	for _, p := range diffProfiles {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", p.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				cal := NewImpl(Calendar)
				ref := NewImpl(Heap)
				nop := func() {}

				type fire struct {
					time float64
					seq  uint64
				}
				var calFired, refFired []fire
				cal.Observe(func(e *Event) { calFired = append(calFired, fire{e.time, e.seq}) })
				ref.Observe(func(e *Event) { refFired = append(refFired, fire{e.time, e.seq}) })

				var calLive, refLive []Handle

				check := func(structural bool) {
					t.Helper()
					if structural {
						auditScheduler(t, cal)
						auditScheduler(t, ref)
					}
					if cal.Len() != ref.Len() {
						t.Fatalf("pending diverged: calendar %d, heap %d", cal.Len(), ref.Len())
					}
					if cal.Now() != ref.Now() {
						t.Fatalf("clocks diverged: calendar %v, heap %v", cal.Now(), ref.Now())
					}
					if cal.Fired() != ref.Fired() {
						t.Fatalf("fired counters diverged: calendar %d, heap %d", cal.Fired(), ref.Fired())
					}
					if len(calFired) != len(refFired) {
						t.Fatalf("fire streams diverged in length: %d vs %d", len(calFired), len(refFired))
					}
					for i := range calFired {
						if calFired[i] != refFired[i] {
							t.Fatalf("fire %d diverged: calendar (%v,%d), heap (%v,%d)", i,
								calFired[i].time, calFired[i].seq, refFired[i].time, refFired[i].seq)
						}
					}
					// Both implementations share the pooled-record free
					// list: after identical fire/cancel histories the
					// recycled populations must match exactly.
					if len(cal.free) != len(ref.free) {
						t.Fatalf("free lists diverged: calendar %d, heap %d", len(cal.free), len(ref.free))
					}
				}

				for i := 0; i < ops; i++ {
					switch w := r.Intn(100); {
					case w < p.cancelW:
						if len(calLive) == 0 {
							continue
						}
						j := r.Intn(len(calLive))
						cg, rg := cal.Cancel(calLive[j]), ref.Cancel(refLive[j])
						if cg != rg {
							t.Fatalf("Cancel diverged on handle %d: calendar %v, heap %v", j, cg, rg)
						}
					case w < p.cancelW+p.stepW:
						if cal.Step() != ref.Step() {
							t.Fatal("Step diverged")
						}
					default:
						d := p.delay(r)
						var ch, rh Handle
						if r.Intn(2) == 0 {
							ch, rh = cal.After(d, nop), ref.After(d, nop)
						} else {
							at := cal.Now() + d
							ch, rh = cal.At(at, nop), ref.At(at, nop)
						}
						calLive = append(calLive, ch)
						refLive = append(refLive, rh)
					}
					if i%auditGap == 0 {
						check(true)
					}
					if cs, rs := len(calLive), len(refLive); cs > 0 && calLive[cs-1].Scheduled() != refLive[rs-1].Scheduled() {
						t.Fatal("latest handle liveness diverged")
					}
				}
				check(true)

				// Drain both to empty; the streams must stay identical to
				// the last event and every handle must read stale.
				for cal.Step() {
					if !ref.Step() {
						t.Fatal("heap drained before calendar")
					}
				}
				if ref.Step() {
					t.Fatal("calendar drained before heap")
				}
				check(true)
				if cal.Len() != 0 {
					t.Fatalf("%d events survived the drain", cal.Len())
				}
				for j := range calLive {
					if calLive[j].Scheduled() != refLive[j].Scheduled() {
						t.Fatalf("handle %d liveness diverged after drain", j)
					}
					if calLive[j].Scheduled() {
						t.Fatalf("handle %d still scheduled after drain", j)
					}
				}
			})
		}
	}
}

// runDriver is one way of firing events up to a horizon.
type runDriver struct {
	name string
	impl Impl
	run  func(s *Scheduler, until float64)
}

// runDrivers are the three schedulers TestDifferentialRunUntil holds
// against each other: RunUntil on the calendar and on the heap, and a
// calendar driven by Step after a separate look at the head, so its
// horizon check is independent of popUntil's.
var runDrivers = []runDriver{
	{"calendar", Calendar, (*Scheduler).RunUntil},
	{"heap", Heap, (*Scheduler).RunUntil},
	{"calendar-step", Calendar, func(s *Scheduler, until float64) {
		s.stopped = false
		for !s.stopped {
			if e := s.cal.peek(); e == nil || e.time > until {
				break
			}
			s.Step()
		}
		if !s.stopped && s.now < until {
			s.now = until
		}
	}},
}

// TestDifferentialRunUntil drives every diffProfiles workload through
// RunUntil chunks on each of runDrivers and requires identical fire
// streams, clocks, pending counts and handle liveness across all three.
// Horizons are drawn at the current time (h = 0), exactly on a pending
// event's time, or a profile delay ahead; now and then an event's action
// calls Stop, ending its chunk early. Subtests pin the Stop and h = 0
// cases directly: after a Stop the next head stays pending and its
// handle stays Scheduled.
func TestDifferentialRunUntil(t *testing.T) {
	const (
		ops      = 3000
		auditGap = 128
	)
	type fire struct {
		time float64
		seq  uint64
	}
	// rig holds one scheduler per driver, each with its fire stream and
	// its handles in scheduling order.
	type rig struct {
		s     []*Scheduler
		fired [][]fire
		live  [][]Handle
	}
	newRig := func() *rig {
		r := &rig{fired: make([][]fire, len(runDrivers)), live: make([][]Handle, len(runDrivers))}
		for k, d := range runDrivers {
			s := NewImpl(d.impl)
			s.Observe(func(e *Event) { r.fired[k] = append(r.fired[k], fire{e.time, e.seq}) })
			r.s = append(r.s, s)
		}
		return r
	}
	// schedule adds one event at the same time on every scheduler; a
	// stopping event calls its own scheduler's Stop.
	nop := func() {}
	schedule := func(r *rig, at float64, stop bool) {
		for k, s := range r.s {
			a := nop
			if stop {
				a = s.Stop
			}
			r.live[k] = append(r.live[k], s.At(at, a))
		}
	}
	run := func(r *rig, until float64) {
		for k, d := range runDrivers {
			d.run(r.s[k], until)
		}
	}
	check := func(t *testing.T, r *rig, structural bool) {
		t.Helper()
		ref := r.s[0]
		for k, s := range r.s {
			if structural {
				auditScheduler(t, s)
			}
			name := runDrivers[k].name
			if s.Len() != ref.Len() || s.Now() != ref.Now() || s.Fired() != ref.Fired() {
				t.Fatalf("%s: pending %d, now %v, fired %d; %s: %d, %v, %d", name, s.Len(), s.Now(), s.Fired(),
					runDrivers[0].name, ref.Len(), ref.Now(), ref.Fired())
			}
			if !reflect.DeepEqual(r.fired[k], r.fired[0]) {
				t.Fatalf("%s fire stream diverged from %s", name, runDrivers[0].name)
			}
			for j := range r.live[k] {
				if r.live[k][j].Scheduled() != r.live[0][j].Scheduled() {
					t.Fatalf("%s: handle %d liveness diverged", name, j)
				}
			}
		}
	}

	for _, p := range diffProfiles {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", p.name, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				r := newRig()
				ref := r.s[0]
				for i := 0; i < ops; i++ {
					switch w := rnd.Intn(100); {
					case w < p.cancelW:
						if len(r.live[0]) == 0 {
							continue
						}
						j := rnd.Intn(len(r.live[0]))
						want := ref.Cancel(r.live[0][j])
						for k, s := range r.s[1:] {
							if s.Cancel(r.live[k+1][j]) != want {
								t.Fatalf("Cancel diverged on handle %d", j)
							}
						}
					case w < p.cancelW+p.stepW:
						until := ref.Now()
						switch rnd.Intn(4) {
						case 0: // h = 0: fire only what is due now
						case 1: // exactly on a pending event's time
							if n := len(r.live[0]); n > 0 {
								if h := r.live[0][rnd.Intn(n)]; h.Scheduled() {
									until = h.e.time
								}
							}
						default:
							until += p.delay(rnd)
						}
						run(r, until)
					default:
						schedule(r, ref.Now()+p.delay(rnd), rnd.Intn(64) == 0)
					}
					if i%auditGap == 0 {
						check(t, r, true)
					}
				}
				check(t, r, true)

				// Drain in chunks to the farthest pending event; stopping
				// events end chunks early, so repeat until empty.
				end := ref.Now()
				for _, h := range r.live[0] {
					if h.Scheduled() && h.e.time > end {
						end = h.e.time
					}
				}
				for ref.Len() > 0 {
					run(r, end)
					check(t, r, false)
				}
				check(t, r, true)
			})
		}
	}

	t.Run("stop-mid-chunk", func(t *testing.T) {
		r := newRig()
		schedule(r, 1, false)
		schedule(r, 2, true)  // stops the chunk after it fires
		schedule(r, 2, false) // same instant, next in line
		schedule(r, 3, false)
		run(r, 10)
		check(t, r, true)
		for k, s := range r.s {
			name := runDrivers[k].name
			if s.Now() != 2 || s.Fired() != 2 || s.Len() != 2 {
				t.Errorf("%s after Stop: now %v, fired %d, pending %d; want 2, 2, 2", name, s.Now(), s.Fired(), s.Len())
			}
			if !r.live[k][2].Scheduled() {
				t.Errorf("%s: the head after the stopping event lost its handle", name)
			}
		}
		run(r, 10)
		check(t, r, true)
		for k, s := range r.s {
			if s.Now() != 10 || s.Len() != 0 || r.live[k][2].Scheduled() {
				t.Errorf("%s resumed: now %v, pending %d; want 10 and 0", runDrivers[k].name, s.Now(), s.Len())
			}
		}
	})

	t.Run("zero-horizon", func(t *testing.T) {
		r := newRig()
		for i := 0; i < 3; i++ {
			schedule(r, 0, false)
		}
		schedule(r, 1, false)
		run(r, 0)
		check(t, r, true)
		if s := r.s[0]; s.Fired() != 3 || s.Len() != 1 || s.Now() != 0 {
			t.Fatalf("RunUntil(0): fired %d, pending %d, now %v; want 3, 1, 0", s.Fired(), s.Len(), s.Now())
		}
		run(r, 0.5)
		schedule(r, 0.5, false)
		schedule(r, 0.5, false)
		run(r, 0.5)
		check(t, r, true)
		if s := r.s[0]; s.Fired() != 5 || s.Len() != 1 || s.Now() != 0.5 {
			t.Fatalf("RunUntil(now): fired %d, pending %d, now %v; want 5, 1, 0.5", s.Fired(), s.Len(), s.Now())
		}
	})
}
