package system

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// parallelCfg returns the shared short-horizon base with operator trees
// enabled at the given join probability and mode.
func parallelCfg(kind policy.Kind, joinProb float64, mode policy.ParallelMode) Config {
	cfg := imperfectCfg(kind, InfoPerfect)
	par := DefaultParallel()
	par.JoinProb = joinProb
	par.Mode = mode
	cfg.Parallel = par
	return cfg
}

// TestParallelSingleOpDifferential is the differential harness of the
// parallel-query extension: with the subsystem enabled but every plan
// degenerating to a single scan (JoinProb 0), each policy must
// reproduce the monolithic model bit for bit — identical trace digest
// and identical Results, for every placement mode. This holds by
// construction (single-operator plans bypass the engine entirely and
// the sampler draws from its own dedicated stream), and this test keeps
// it true.
func TestParallelSingleOpDifferential(t *testing.T) {
	kinds := []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.BNQRD, policy.LERT, policy.Work}
	modes := []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP}
	for _, kind := range kinds {
		base := runDigest(t, imperfectCfg(kind, InfoPerfect))
		for _, mode := range modes {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				r := runDigest(t, parallelCfg(kind, 0, mode))
				if r.TraceDigest != base.TraceDigest {
					t.Errorf("digest %#x, want monolithic %#x — single-op trees changed the event stream",
						r.TraceDigest, base.TraceDigest)
				}
				if !reflect.DeepEqual(r, base) {
					t.Errorf("results diverged from the monolithic run:\n  trees: %+v\n  mono:  %+v", r, base)
				}
			})
		}
	}
}

// TestParallelDigestDeterminism pins the enabled subsystem's own
// reproducibility: same seed, same digest; different seed, different
// digest; and the heap scheduler replays the calendar's event stream
// bit for bit with trees on.
func TestParallelDigestDeterminism(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.5, mode)
			a := runDigest(t, cfg)
			b := runDigest(t, cfg)
			if a.TraceDigest != b.TraceDigest {
				t.Errorf("same seed digests differ: %#x vs %#x", a.TraceDigest, b.TraceDigest)
			}
			heap := cfg
			heap.Scheduler = sim.Heap
			h := runDigest(t, heap)
			if h.TraceDigest != a.TraceDigest {
				t.Errorf("heap digest %#x, want calendar %#x", h.TraceDigest, a.TraceDigest)
			}
			other := cfg
			other.Seed = cfg.Seed + 1
			o := runDigest(t, other)
			if o.TraceDigest == a.TraceDigest {
				t.Errorf("different seeds produced the same digest %#x", a.TraceDigest)
			}
		})
	}
}

// TestParallelModesAudited runs each placement mode with trees on under
// the full auditor set and checks the Results surface: plans ran, every
// operator attempt is accounted for, and the per-resource ledger moved.
func TestParallelModesAudited(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			r := runDigest(t, parallelCfg(policy.LERT, 0.6, mode))
			if r.ParallelQueries == 0 {
				t.Fatal("no multi-operator plans ran")
			}
			if r.OperatorsCompleted == 0 {
				t.Fatal("no operators completed")
			}
			if r.Operators < r.OperatorsCompleted+r.OperatorsAborted+r.OperatorsPreempted {
				t.Errorf("operator ledger overflows: %d spawned < %d completed + %d aborted + %d preempted",
					r.Operators, r.OperatorsCompleted, r.OperatorsAborted, r.OperatorsPreempted)
			}
			if len(r.DOPHist) == 0 {
				t.Error("empty DOP histogram with plans on")
			}
			if r.OpDiskBusy <= 0 || r.OpCPUBusy <= 0 {
				t.Errorf("per-resource busy ledger empty: cpu %v disk %v", r.OpCPUBusy, r.OpDiskBusy)
			}
			if mode != policy.ParallelSingle && r.IntermediateBytes <= 0 {
				t.Errorf("no intermediate bytes shipped in %v mode", mode)
			}
		})
	}
}

// TestParallelDOPSplitsWide checks that DOP mode actually splits: with
// the default cost parameters the bottom join's divisible work dwarfs
// the per-site overhead, so some plans must land on two or more sites
// via the fragment-and-replicate expansion.
func TestParallelDOPSplitsWide(t *testing.T) {
	r := runDigest(t, parallelCfg(policy.LERT, 1, policy.ParallelDOP))
	var wide uint64
	for k := 1; k < len(r.DOPHist); k++ {
		wide += r.DOPHist[k]
	}
	if wide == 0 {
		t.Fatalf("no plan used more than one site: hist %v", r.DOPHist)
	}
}

// TestParallelUnderPlacement runs trees over a partially replicated
// database: scans are confined to fragment holders and the expansion
// shares split among them, all under audit.
func TestParallelUnderPlacement(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.6, mode)
			p, err := replica.NewRoundRobin(cfg.NumSites, 12, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Placement = p
			r := runDigest(t, cfg)
			if r.ParallelQueries == 0 || r.OperatorsCompleted == 0 {
				t.Fatalf("plans %d, completed operators %d — placement run idle",
					r.ParallelQueries, r.OperatorsCompleted)
			}
		})
	}
}

// staticPlanPolicy is a load-oblivious planner: it always picks the
// lowest-numbered candidate, or site 0 when unconstrained, so every
// query with the same operators gets the same plan.
type staticPlanPolicy struct{}

func (staticPlanPolicy) Name() string { return "STATIC" }

func (staticPlanPolicy) Select(_ *workload.Query, _ int, env *policy.Env) int {
	if env.Candidates == nil {
		return 0
	}
	if len(env.Candidates) == 0 {
		return policy.NoSite
	}
	return slices.Min(env.Candidates)
}

// TestParallelStaticPlanConvoy reproduces the paper's §1.1 argument for
// dynamic allocation: if every query gets the same statically chosen
// plan, only the few sites in that plan are busy while the rest idle.
// Every query is a two-way join over a hot, small, 2-copy placement;
// the static planner convoys on the lowest-numbered holders while LERT
// spreads each operator by load, under both schedulers and audit.
func TestParallelStaticPlanConvoy(t *testing.T) {
	for _, objects := range []int{1, 6} {
		for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
			t.Run(fmt.Sprintf("objects=%d/%v", objects, impl), func(t *testing.T) {
				run := func(custom policy.Policy) Results {
					cfg := parallelCfg(policy.LERT, 1, policy.ParallelOperator)
					cfg.CustomPolicy = custom
					cfg.Scheduler = impl
					p, err := replica.NewRoundRobin(cfg.NumSites, objects, 2)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Placement = p
					return runDigest(t, cfg)
				}
				static, lert := run(staticPlanPolicy{}), run(nil)
				t.Logf("STATIC mean resp %.0f completed %d; LERT mean resp %.0f completed %d",
					static.MeanResponse, static.Completed, lert.MeanResponse, lert.Completed)
				if static.MeanResponse < 2*lert.MeanResponse {
					t.Errorf("STATIC mean response %.1f, want ≥ 2× LERT's %.1f",
						static.MeanResponse, lert.MeanResponse)
				}
				if static.Completed >= lert.Completed {
					t.Errorf("STATIC completed %d queries, want fewer than LERT's %d",
						static.Completed, lert.Completed)
				}
			})
		}
	}
}

// TestParallelDeadlineAbortReleasesOnce pins satellite 4's first half:
// a deadline abort of an operator-split query withdraws every per-site
// attempt exactly once. The conservation auditor enforces
// DeadlineOpAborts == DeadlineOpReleases and commits == releases + live
// between every pair of events, so a double release or a leak fails the
// run; here we additionally require that the path actually fired.
func TestParallelDeadlineAbortReleasesOnce(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 1, policy.ParallelOperator)
	cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: 60}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.DeadlineMisses == 0 {
		t.Fatal("deadline never fired; tighten the budget")
	}
	if sys.led.DeadlineOpAborts == 0 {
		t.Fatal("no operator attempt was withdrawn by a deadline abort")
	}
	if sys.led.DeadlineOpAborts != sys.led.DeadlineOpReleases {
		t.Fatalf("%d deadline-aborted operators released %d commitments",
			sys.led.DeadlineOpAborts, sys.led.DeadlineOpReleases)
	}
	if r.OperatorsAborted == 0 {
		t.Fatal("aborted-operator counter never moved")
	}
}

// TestParallelHedgedOperatorNoDoubleCount pins satellite 4's second
// half: operator hedge clones win and lose without double counting.
// The clones share the query-level hedge ledger, so the auditor's
// launched == wins + cancelled + racing identity holds at every event,
// and its commit/release identity rules out a loser being released
// twice.
func TestParallelHedgedOperatorNoDoubleCount(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 0.8, policy.ParallelOperator)
	cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.5, MinDelay: 5}
	cfg.Parallel.Hedge = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.Hedged == 0 {
		t.Fatal("no operator hedge clone launched; loosen the trigger")
	}
	l := sys.led
	if got := l.HedgeWins + l.HedgeCancelled + uint64(l.Racing); l.Hedges != got {
		t.Fatalf("hedge ledger unbalanced: %d launched, %d settled", l.Hedges, got)
	}
	if l.TableLive < 0 {
		t.Fatalf("negative live commitments %d (double release)", l.TableLive)
	}
}

// TestParallelFaultChaos runs trees under site crashes and a lossy ring
// with every auditor armed: carrier losses must collapse their plans
// into clean rejections with no leaked or double-released commitment.
func TestParallelFaultChaos(t *testing.T) {
	for _, mode := range []policy.ParallelMode{policy.ParallelOperator, policy.ParallelDOP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := parallelCfg(policy.LERT, 0.7, mode)
			cfg.Fault = fault.Config{
				Enabled:       true,
				MTTF:          1200,
				MTTR:          250,
				DropProb:      0.03,
				DetectTimeout: 150,
				RetryBackoff:  10,
				MaxRetries:    6,
			}
			r := runDigest(t, parallelChaosHedge(cfg))
			if r.ParallelQueries == 0 {
				t.Fatal("no plans ran under chaos")
			}
			if r.OperatorsPreempted == 0 && r.QueriesRejected == 0 {
				t.Log("chaos run saw no carrier losses; auditors still passed")
			}
		})
	}
}

// parallelChaosHedge layers operator hedging onto a chaos config so the
// crash/drop paths exercise the race bookkeeping too.
func parallelChaosHedge(cfg Config) Config {
	cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
	cfg.Parallel.Hedge = true
	return cfg
}

// TestParallelConfigRejects pins the cross-field validation: operator
// hedging without the hedge subsystem, and plans under migration, are
// configuration errors.
func TestParallelConfigRejects(t *testing.T) {
	cfg := parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Parallel.Hedge = true
	if _, err := New(cfg); err == nil {
		t.Error("Parallel.Hedge without Hedge.Enabled accepted")
	}
	cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Migration = MigrationConfig{Enabled: true, Threshold: 2, CheckEvery: 4, MinRemaining: 5, StateFactor: 1}
	if _, err := New(cfg); err == nil {
		t.Error("parallel plans under migration accepted")
	}
	cfg = parallelCfg(policy.LERT, 0.5, policy.ParallelOperator)
	cfg.Parallel.Mode = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid parallel mode accepted")
	}
}

// FuzzParallelScheduler cross-checks the operator engine under both
// kernel implementations: for arbitrary seeds, join probabilities,
// modes, and fault settings, the calendar and heap schedulers must
// produce bit-identical event streams with every auditor passing.
func FuzzParallelScheduler(f *testing.F) {
	f.Add(uint64(1), uint8(128), uint8(0), false)
	f.Add(uint64(7), uint8(255), uint8(1), true)
	f.Add(uint64(42), uint8(64), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, joinProb, mode uint8, faultOn bool) {
		modes := []policy.ParallelMode{policy.ParallelSingle, policy.ParallelOperator, policy.ParallelDOP}
		cfg := parallelCfg(policy.LERT, float64(joinProb)/255, modes[int(mode)%len(modes)])
		cfg.Seed = seed
		cfg.Warmup = 200
		cfg.Measure = 1500
		if faultOn {
			cfg.Fault = fault.Config{
				Enabled:       true,
				MTTF:          900,
				MTTR:          200,
				DropProb:      0.02,
				DetectTimeout: 120,
				RetryBackoff:  10,
				MaxRetries:    4,
			}
		}
		a := runDigest(t, cfg)
		heap := cfg
		heap.Scheduler = sim.Heap
		b := runDigest(t, heap)
		if a.TraceDigest != b.TraceDigest {
			t.Fatalf("scheduler implementations diverged: calendar %#x, heap %#x", a.TraceDigest, b.TraceDigest)
		}
	})
}
