package system

import (
	"math"
	"testing"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
)

// This file is the digest-equivalence gate for kernel optimizations: the
// event-pooling pass (free lists, preallocated payloads, worker reuse)
// must change nothing but speed. Every digest here was captured on the
// pre-pooling tree; a run on the optimized kernel must reproduce each
// one bit for bit. Unlike the knobs-disabled identity tests, the two
// extra configs below exercise the fault and noise layers *enabled*, so
// the pooled cancel/reuse paths (watchdogs, retries, drops, delayed
// broadcasts) are covered too, not just the happy path.

// faultOnConfig enables site crashes, a lossy ring, and perturbed load
// broadcasts on top of the shared short-horizon base — the heaviest
// consumer of event cancellation and reuse.
func faultOnConfig() Config {
	cfg := imperfectCfg(policy.LERT, InfoPeriodic)
	cfg.Fault = fault.Config{
		Enabled:       true,
		MTTF:          1500,
		MTTR:          300,
		DropProb:      0.05,
		DetectTimeout: 150,
		RetryBackoff:  10,
		MaxRetries:    8,
	}
	return cfg
}

// noiseOnConfig enables lognormal estimation error, which diverts the
// cost-based allocator and therefore shifts the whole event stream.
func noiseOnConfig() Config {
	cfg := imperfectCfg(policy.LERT, InfoPerfect)
	cfg.Noise = noise.Default()
	return cfg
}

// TestDigestEquivalencePooledKernel runs the 12 recorded golden digest
// configurations plus one fault-on and one noise-on configuration and
// asserts bit-identity with the digests checked in before the pooling
// optimization. Audit stays on for every run, so the equivalence proof
// also holds under the runtime invariant auditors.
func TestDigestEquivalencePooledKernel(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run("golden/"+g.mode.String()+"/"+g.kind.String(), func(t *testing.T) {
			r := runDigest(t, imperfectCfg(g.kind, g.mode))
			if r.TraceDigest != g.want {
				t.Errorf("digest %#x, want pre-pooling golden %#x — the optimization changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
	extra := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"fault-on/LERT/periodic", faultOnConfig(), 0xb9301bf99abd3f78},
		{"noise-on/LERT/perfect", noiseOnConfig(), 0x43c038fbbd5ab1a8},
	}
	for _, g := range extra {
		t.Run(g.name, func(t *testing.T) {
			r := runDigest(t, g.cfg)
			if r.TraceDigest != g.want {
				t.Errorf("digest %#x, want pre-pooling golden %#x — the optimization changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
}

// TestDigestEquivalenceSchedulerImpls is the same gate for the
// calendar-queue scheduler: both kernel implementations must reproduce
// every golden digest bit for bit. The calendar queue is the default, so
// TestDigestEquivalencePooledKernel already covers it on the full
// golden table; here the reference heap replays that table, and the
// fault-on and noise-on configurations — the heaviest consumers of
// event cancellation and record reuse, where a routing or free-list
// divergence would surface first — run under both implementations
// explicitly. A mismatch means a scheduler implementation reordered or
// dropped events, which the calendar's design forbids by construction
// (see DESIGN.md §12).
func TestDigestEquivalenceSchedulerImpls(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run("golden/heap/"+g.mode.String()+"/"+g.kind.String(), func(t *testing.T) {
			cfg := imperfectCfg(g.kind, g.mode)
			cfg.Scheduler = sim.Heap
			r := runDigest(t, cfg)
			if r.TraceDigest != g.want {
				t.Errorf("heap digest %#x, want golden %#x — the scheduler changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
	heavy := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"fault-on/LERT/periodic", faultOnConfig(), 0xb9301bf99abd3f78},
		{"noise-on/LERT/perfect", noiseOnConfig(), 0x43c038fbbd5ab1a8},
	}
	for _, g := range heavy {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(g.name+"/"+impl.String(), func(t *testing.T) {
				cfg := g.cfg
				cfg.Scheduler = impl
				r := runDigest(t, cfg)
				if r.TraceDigest != g.want {
					t.Errorf("%v digest %#x, want golden %#x — the scheduler changed the event stream",
						impl, r.TraceDigest, g.want)
				}
			})
		}
	}
}

// dqsimConfig mirrors cmd/dqsim's flag defaults (Table 7 with
// LERT, seed 1), so the lifecycle configurations below restate CI and
// golden command lines field for field.
func dqsimConfig(sites, mpl int, warmup, measure float64) Config {
	cfg := Default()
	cfg.NumSites = sites
	cfg.MPL = mpl
	cfg.Warmup = warmup
	cfg.Measure = measure
	cfg.Audit = true
	cfg.TraceDigest = true
	return cfg
}

// dqsimFault mirrors dqsim's fault block: crashes off unless mttf > 0.
func dqsimFault(mttf, mttr, drop float64) fault.Config {
	fc := fault.Default()
	fc.MTTF = math.Inf(1)
	if mttf > 0 {
		fc.MTTF = mttf
	}
	if mttr > 0 {
		fc.MTTR = mttr
	}
	fc.DropProb = drop
	return fc
}

// dqsimHedge mirrors -hedge-quantile.
func dqsimHedge(q float64) HedgeConfig {
	h := DefaultHedge()
	h.Quantile = q
	return h
}

// lifecycleDigests pins the audited runs that drive the query-attempt
// lifecycle hardest — deadlines, hedge races, operator carriers, fault
// retries, replica rebuilds and gray failures — so a refactor of the
// lifecycle bookkeeping must reproduce each event stream bit for bit.
func lifecycleDigests(t *testing.T) []struct {
	name string
	cfg  Config
	want uint64
} {
	t.Helper()
	// (a) CI overload-chaos: -sites 3 -mpl 5 -warmup 200 -measure 3000
	// -arrival mmpp -rate 0.15 -burst 4 -deadline 250 -hedge-quantile 0.9
	// -mttf 1500 -mttr 300 -drop 0.03.
	overload := dqsimConfig(3, 5, 200, 3000)
	overload.Arrival = arrival.DefaultMMPP(0.15)
	overload.Arrival.BurstFactor = 4
	overload.Deadline = DeadlineConfig{Enabled: true, Deadline: 250}
	overload.Hedge = dqsimHedge(0.9)
	overload.Fault = dqsimFault(1500, 300, 0.03)

	// (b) CI parallel-query chaos: -sites 4 -mpl 5 -warmup 200 -measure
	// 3000 -par-mode dop -par-join 0.8 -par-overhead 0.5 -deadline 300
	// -hedge-quantile 0.9 -par-hedge -objects 12 -copies 2 -mttf 1500
	// -mttr 300 -drop 0.03.
	par := dqsimConfig(4, 5, 200, 3000)
	par.Parallel = DefaultParallel()
	par.Parallel.Mode = policy.ParallelDOP
	par.Parallel.JoinProb = 0.8
	par.Parallel.SplitOverhead = 0.5
	par.Parallel.Hedge = true
	par.Deadline = DeadlineConfig{Enabled: true, Deadline: 300}
	par.Hedge = dqsimHedge(0.9)
	par.Fault = dqsimFault(1500, 300, 0.03)
	var err error
	if par.Placement, err = replica.NewRoundRobin(4, 12, 2); err != nil {
		t.Fatal(err)
	}

	// (c) CI replication-smoke rebuild: -mpl 5 -warmup 200 -measure 3000
	// -objects 30 -copies 2 -rebuild -frag-size 2 -rebuild-delay 10
	// -mttf 1500 -mttr 600.
	repl := dqsimConfig(6, 5, 200, 3000)
	repl.Fault = dqsimFault(1500, 600, 0)
	if repl.Placement, err = replica.NewRoundRobin(6, 30, 2); err != nil {
		t.Fatal(err)
	}
	repl.Replication = replica.DefaultManager()
	repl.Replication.MinCopies, repl.Replication.MaxCopies = 2, 2
	repl.Replication.FragmentSize = 2
	repl.Replication.RebuildDelay = 10
	repl.Replication.HotRate, repl.Replication.ColdRate = 0.05, 0.005

	// (d) cmd/dqsim gray golden: -sites 3 -mpl 5 -seed 3 -think 600
	// -warmup 300 -measure 8000 -slow-mttf 1500 -slow-mttr 500
	// -slow-factor 10 -brownout-mttf 2000 -brownout-mttr 300 -suspect
	// -hedge-quantile 0.9.
	gray := dqsimConfig(3, 5, 300, 8000)
	gray.Seed = 3
	gray.ThinkTime = 600
	gray.Fault = dqsimFault(0, 0, 0)
	gray.Fault.SlowMTTF, gray.Fault.SlowMTTR, gray.Fault.SlowFactor = 1500, 500, 10
	gray.Fault.BrownoutMTTF, gray.Fault.BrownoutMTTR, gray.Fault.BrownoutFactor = 2000, 300, 4
	gray.Suspect = loadinfo.DefaultSuspect()
	gray.Hedge = dqsimHedge(0.9)

	// (e) the benchmark's chaos workload at seed 1: every opt-in
	// subsystem at once on the Table-7 system.
	chaos := Default()
	chaos.Audit = true
	chaos.TraceDigest = true
	chaos.Arrival = arrival.DefaultMMPP(0.15)
	chaos.Deadline = DeadlineConfig{Enabled: true, Deadline: 800}
	chaos.Hedge = DefaultHedge()
	chaos.Parallel = DefaultParallel()
	chaos.Parallel.Mode = policy.ParallelDOP
	chaos.Parallel.JoinProb = 0.6
	if chaos.Placement, err = replica.NewRoundRobin(chaos.NumSites, 60, 2); err != nil {
		t.Fatal(err)
	}
	chaos.Replication = replica.DefaultManager()
	chaos.Replication.FragmentSize = 2
	chaos.Replication.RebuildDelay = 10
	chaos.Fault = fault.DefaultSlow()
	chaos.Fault.MTTF = 8000
	chaos.Fault.MTTR = 300
	chaos.Fault.SlowMTTF = 20000
	chaos.Suspect = loadinfo.DefaultSuspect()
	chaos.Warmup, chaos.Measure = 500, 50000

	// (f) degraded fetch reads under suspicion: each degraded selection
	// swaps the suspicion penalty out and back in. Unlike (a)–(e), this
	// digest was captured after the attempt record landed.
	degraded := degradedSuspectConfig(t)
	degraded.TraceDigest = true

	return []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"overload-chaos", overload, 0x631eda165791192a},
		{"parallel-chaos", par, 0x6cf116d2ed09921c},
		{"replication-rebuild", repl, 0x773f548843636c73},
		{"gray-golden", gray, 0x31af046875984a0c},
		{"bench-chaos", chaos, 0xf87982fd75b07981},
		{"degraded-suspect", degraded, 0xf5aa9a6533a184ad},
	}
}

// TestLifecycleDigests pins every lifecycle configuration under both
// scheduler implementations. The digests were captured before the
// query-attempt record replaced the per-query side tables; any change
// to the lifecycle bookkeeping that reorders, adds or drops an event
// trips them.
func TestLifecycleDigests(t *testing.T) {
	for _, g := range lifecycleDigests(t) {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(g.name+"/"+impl.String(), func(t *testing.T) {
				cfg := g.cfg
				cfg.Scheduler = impl
				r := runDigest(t, cfg)
				if r.TraceDigest != g.want {
					t.Errorf("%v digest %#x, want golden %#x — the lifecycle event stream changed",
						impl, r.TraceDigest, g.want)
				}
			})
		}
	}
}
