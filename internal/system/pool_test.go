package system

import (
	"testing"

	"dqalloc/internal/policy"
	"dqalloc/internal/race"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// benchChaos returns the lifecycle-digest restatement of the benchmark's
// chaos workload: every opt-in subsystem at once on the Table-7 system.
func benchChaos(t *testing.T) Config {
	t.Helper()
	for _, g := range lifecycleDigests(t) {
		if g.name == "bench-chaos" {
			return g.cfg
		}
	}
	t.Fatal("no bench-chaos lifecycle config")
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
	cfg := benchChaos(t)
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

// TestPoolBalance checks the free rule against the ledger's record
// censuses: at the horizon every record taken and not returned is a live
// logical query, a racing clone, a live plan, or a retired record still
// owed a delivery. A leaked record (retired, owed nothing, never freed)
// or a double free breaks the identity.
func TestPoolBalance(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{}
	for _, g := range lifecycleDigests(t) {
		cfgs = append(cfgs, struct {
			name string
			cfg  Config
		}{g.name, g.cfg})
	}
	for _, c := range cfgs {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(c.name+"/"+impl.String(), func(t *testing.T) {
				cfg := c.cfg
				cfg.Scheduler = impl
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sys.Run()
				if err := sys.Audit(); err != nil {
					t.Fatal(err)
				}
				led := &sys.led
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

// TestReleasedRecordPoisoned injects a stale delivery — one the free
// rule never counted — against a record already back on its free list:
// under Audit the record is poisoned and the delivery panics instead of
// acting on whichever query reuses it.
func TestReleasedRecordPoisoned(t *testing.T) {
	cfg := benchChaos(t)
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

// TestCrashDrainsTwoCarriersOfOnePlan is the regression for the crash
// loop's stray defunct bits: a crash drains carriers A and B of one plan,
// A's loss collapses the plan and withdraws B. B was drained, so no
// delivery is pending for it: it must not be marked defunct (a defunct
// bit on a freed record would be consumed by whichever query reuses it),
// its commitment is released exactly once, and the plan is freed.
func TestCrashDrainsTwoCarriersOfOnePlan(t *testing.T) {
	cfg := dqsimConfig(2, 1, 0, 1)
	cfg.Audit = true
	cfg.Parallel = DefaultParallel()
	cfg.Parallel.Mode = policy.ParallelOperator
	cfg.Fault = dqsimFault(1e9, 100, 0)
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
