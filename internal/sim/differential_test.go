package sim

import (
	"fmt"
	"math/rand"
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
