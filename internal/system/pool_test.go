package system

import (
	"strings"
	"testing"

	"dqalloc/internal/race"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// lifecycleConfig returns the lifecycle-digest configuration called name.
func lifecycleConfig(t *testing.T, name string) Config {
	t.Helper()
	for _, g := range lifecycleDigests(t) {
		if g.name == name {
			return g.cfg
		}
	}
	t.Fatalf("no %s lifecycle config", name)
	return Config{}
}

// TestChaosAllocBudget pins the record pools' effect: one unaudited chaos
// replication allocates records only while its free lists grow to the
// peak in-flight population, so its whole run — construction included —
// stays within a fixed budget instead of growing with the query count.
func TestChaosAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := lifecycleConfig(t, "bench-chaos")
	cfg.Audit, cfg.TraceDigest = false, false
	var res Results
	avg := testing.AllocsPerRun(1, func() {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res = sys.Run()
	})
	if res.Completed == 0 {
		t.Fatal("run completed nothing")
	}
	t.Logf("%.0f allocs per replication, %d completions", avg, res.Completed)
	if avg > 24000 {
		t.Errorf("chaos replication allocates %.0f objects, budget 24000", avg)
	}
}

// benchLan64 returns the benchmark's lan64 shape: the Table-7 model at
// 64 sites with a 0.1 message time, LERT, over a 500 + 10000 horizon.
func benchLan64() Config {
	cfg := Default()
	cfg.NumSites = 64
	cfg.MsgTime = 0.1
	cfg.Warmup, cfg.Measure = 500, 10000
	return cfg
}

// untrackedRuns names the TestPoolBalance runs without a deadline,
// hedge, fault or operator subsystem: their queries come from the
// untracked free list.
var untrackedRuns = map[string]bool{"paper": true, "lan64": true, "smoke": true, "open-admission": true, "imperfect": true}

// TestPoolBalance checks the free rule against the ledger's record
// censuses: at the horizon every record taken and not returned is a live
// logical query, a racing clone, a live plan, or a retired record still
// owed a delivery; on untracked runs every query taken and not returned
// is a live logical query. A leaked record (retired, owed nothing, never
// freed) or a double free breaks the identity.
func TestPoolBalance(t *testing.T) {
	paper, lan64 := Default(), benchLan64()
	paper.Audit, lan64.Audit = true, true
	runs := append(lifecycleDigests(t), pinnedRun{name: "paper", cfg: paper}, pinnedRun{name: "lan64", cfg: lan64})
	for _, g := range runs {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(g.name+"/"+impl.String(), func(t *testing.T) {
				sys := runPooled(t, g.cfg, impl, !untrackedRuns[g.name])
				led := &sys.led
				if !sys.tracked {
					if sys.queries.taken == 0 {
						t.Fatal("no untracked query taken")
					}
					if got, want := sys.queries.held(), uint64(led.QueriesLive); got != want {
						t.Errorf("%d untracked queries held, %d live", got, want)
					}
					// Only the open run overruns its admission bound; the
					// closed imperfect run's five terminals per site do not.
					if g.name == "open-admission" && (led.Shed == 0 || led.Resubmitted == 0) {
						t.Errorf("admission shed %d and resubmitted %d queries; the run exercises neither end",
							led.Shed, led.Resubmitted)
					}
					t.Logf("queries taken %d held %d, %d free; shed %d, resubmitted %d",
						sys.queries.taken, sys.queries.held(), len(sys.queries.free), led.Shed, led.Resubmitted)
					return
				}
				if sys.attempts.taken == 0 {
					t.Fatal("no attempt record taken")
				}
				want := uint64(led.QueriesLive + led.Racing + led.StrandedAttempts)
				if got := sys.attempts.held(); got != want {
					t.Errorf("%d attempt records held, census %d (%d live queries + %d racing clones + %d stranded)",
						got, want, led.QueriesLive, led.Racing, led.StrandedAttempts)
				}
				if got, want := sys.plans.held(), uint64(led.PlansLive+led.StrandedPlans); got != want {
					t.Errorf("%d plan records held, census %d (%d live + %d stranded)",
						got, want, led.PlansLive, led.StrandedPlans)
				}
				t.Logf("attempts taken %d held %d; plans taken %d held %d",
					sys.attempts.taken, sys.attempts.held(), sys.plans.taken, sys.plans.held())
			})
		}
	}
}

// runPooled runs cfg under scheduler impl, checking that it tracks
// lifecycles exactly when tracked says so, that its audit passes, and
// that the other kind of free list stayed unused.
func runPooled(t *testing.T, cfg Config, impl sim.Impl, tracked bool) *System {
	t.Helper()
	cfg.Scheduler = impl
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.tracked != tracked {
		t.Fatalf("run tracked = %v, want %v", sys.tracked, tracked)
	}
	sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if tracked && sys.queries.taken != 0 {
		t.Errorf("tracked run took %d untracked queries", sys.queries.taken)
	}
	if !tracked && sys.attempts.taken+sys.plans.taken != 0 {
		t.Errorf("untracked run took %d attempt and %d plan records", sys.attempts.taken, sys.plans.taken)
	}
	return sys
}

// TestReleasedRecordPoisoned injects a stale delivery — one the free
// rule never counted — against a record already back on its free list:
// under Audit the record is poisoned and the delivery panics instead of
// acting on whichever query reuses it.
func TestReleasedRecordPoisoned(t *testing.T) {
	cfg := lifecycleConfig(t, "bench-chaos")
	cfg.Warmup, cfg.Measure = 100, 3000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if len(sys.attempts.free) == 0 || len(sys.plans.free) == 0 {
		t.Fatal("no released record to inject against")
	}
	a := sys.attempts.free[len(sys.attempts.free)-1]
	if a.phase != phaseFree {
		t.Fatalf("released attempt in phase %d, want phaseFree", a.phase)
	}
	pe := sys.plans.free[len(sys.plans.free)-1]
	for _, inject := range []struct {
		name    string
		deliver func()
	}{
		{"ship", func() { sys.shipFn(&a.q, false) }},
		{"result", func() { sys.resultFn(&a.q, false) }},
		{"fetch drop", func() { sys.fetchFn(&a.q, true) }},
		{"resubmission", func() { sys.resubmit(&a.q) }},
		{"plan shipment", func() { sys.onPlanData(pe, false) }},
	} {
		t.Run(inject.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("stale delivery against a released record did not panic")
				}
			}()
			inject.deliver()
		})
	}
}

// TestReleasedRecordPoisonedUntracked is TestReleasedRecordPoisoned for
// the untracked free list: under Audit a released untracked query carries
// the releasedQuery sentinel, so a stale delivery or resubmission against
// it, or a second end, panics instead of acting on the query reusing it.
func TestReleasedRecordPoisonedUntracked(t *testing.T) {
	sys, err := New(lifecycleConfig(t, "open-admission"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if len(sys.queries.free) == 0 {
		t.Fatal("no released query to inject against")
	}
	q := sys.queries.free[len(sys.queries.free)-1]
	if q.Attempt != releasedQuery {
		t.Fatalf("released query carries %v, want the releasedQuery sentinel", q.Attempt)
	}
	for _, inject := range []struct {
		name    string
		deliver func()
	}{
		{"ship", func() { sys.shipFn(q, false) }},
		{"result", func() { sys.resultFn(q, false) }},
		{"fetch", func() { sys.fetchFn(q, false) }},
		{"resubmission", func() { sys.resubmit(q) }},
		{"second end", func() { sys.endQuery(q) }},
	} {
		t.Run(inject.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("stale use of a released untracked query did not panic")
				}
			}()
			inject.deliver()
		})
	}
}

// TestCrashDrainsTwoCarriersOfOnePlan is the regression for the crash
// loop's stray defunct bits: a crash drains carriers A and B of one plan,
// A's loss collapses the plan and withdraws B. B was drained, so no
// delivery is pending for it: it must not be marked defunct (a defunct
// bit on a freed record would be consumed by whichever query reuses it),
// its commitment is released exactly once, and the plan is freed.
func TestCrashDrainsTwoCarriersOfOnePlan(t *testing.T) {
	cfg, err := ParseArgs(strings.Fields("-sites 2 -mpl 1 -warmup 0 -measure 1 -par-mode operator -mttf 1e9 -mttr 100 -audit"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-place a scan-scan-join plan with both scans at site 0.
	q := sys.newQuery(-1, 0)
	q.ReadsTotal = 50
	plan := workload.Plan{Ops: []workload.Operator{
		{Kind: workload.OpScan, Reads: 50, OutPages: 5, OutBytes: 0.1, Frag: 0},
		{Kind: workload.OpScan, Reads: 50, OutPages: 5, OutBytes: 0.1, Frag: 0},
		{Kind: workload.OpJoin, Reads: 10, PageCPU: 0.1, OutPages: 2, OutBytes: 0.1, Frag: -1, Inputs: []int{0, 1}},
	}, Root: 2}
	pe := sys.newPlan(q, plan)
	sys.parInstAt(pe, 0, 0)
	sys.parInstAt(pe, 1, 0)
	sys.parInstAt(pe, 2, 1)
	for node, p := range pe.plan.Parent() {
		if p >= 0 {
			pe.insts[node][0].outTo = pe.insts[p]
			pe.insts[p][0].waiting++
		}
	}
	pe.rootRemaining = 1
	a := rec(q)
	a.phase, a.plan = phaseCommitted, pe
	sys.parDispatch(pe.insts[0][0])
	sys.parDispatch(pe.insts[1][0])
	carriers := []*attempt{&pe.insts[0][0].carrier, &pe.insts[1][0].carrier}
	for _, c := range carriers {
		if c.phase != phaseCommitted {
			t.Fatalf("carrier in phase %d before the crash, want committed", c.phase)
		}
	}
	if got := sys.table.NumQueries(0); got != 2 {
		t.Fatalf("site 0 carries %d commitments, want 2", got)
	}
	sys.onSiteCrash(0)
	for i, c := range carriers {
		if c.defunct {
			t.Errorf("carrier %d left defunct with no delivery pending", i)
		}
	}
	if got := sys.table.NumQueries(0); got != 0 {
		t.Errorf("site 0 still carries %d commitments after the crash", got)
	}
	if sys.led.Releases != 2 || sys.led.OpsPreempted != 1 || sys.led.OpsAborted != 1 {
		t.Errorf("releases %d, preempted %d, aborted %d; want 2, 1, 1",
			sys.led.Releases, sys.led.OpsPreempted, sys.led.OpsAborted)
	}
	if sys.plans.held() != 0 || sys.attempts.held() != 0 {
		t.Errorf("%d plans and %d attempts still held after the collapse", sys.plans.held(), sys.attempts.held())
	}
	if sys.led.QueriesLive != 0 || sys.led.PlansLive != 0 || sys.rejected != 1 {
		t.Errorf("live queries %d, plans %d, rejected %d; want 0, 0, 1",
			sys.led.QueriesLive, sys.led.PlansLive, sys.rejected)
	}
}
