package system

import (
	"os"
	"path/filepath"
	"strings"
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

// dqsimPins pins the event-stream digest of every dqsim command line in
// CI's workflow, keyed by its exact argument string with CI's "-sched
// ${{ matrix.sched }}" stripped, plus dqsim's gray golden. Each digest
// was captured through dqsim's own flags and holds under both scheduler
// implementations. The overload-chaos, parallel-chaos,
// replication-rebuild and gray-golden digests predate the query-attempt
// record, so they also hold the lifecycle refactor to its old streams.
var dqsimPins = []struct {
	name, args string
	want       uint64
}{
	{"smoke", "-policy LERT -sites 3 -mpl 5 -warmup 200 -measure 2000 -audit", 0x6db48f8cecd45152},
	{"overload-smoke", "-policy LERT -sites 3 -mpl 5 -warmup 200 -measure 2000 -arrival mmpp -rate 0.15 -deadline 250 -hedge-quantile 0.9 -audit", 0x65eff91b2e53b370},
	{"open-admission", "-policy BNQ -sites 3 -mpl 5 -warmup 200 -measure 2000 -arrival mmpp -rate 0.15 -admit-max 4 -admit-defer 5 -objects 12 -copies 2 -audit", 0x4a8a3ec0a2b2093b},
	{"fault", "-policy LERT -sites 3 -mpl 5 -warmup 200 -measure 2000 -mttf 1500 -mttr 300 -drop 0.05 -audit", 0x5d9887832ba10ca7},
	{"imperfect", "-policy BNQ -sites 3 -mpl 5 -warmup 200 -measure 2000 -info-period 40 -est-noise 0.5 -hyst 0.2 -admit-max 4 -admit-defer 5 -audit", 0xff29b7b79b8cd93b},
	{"gray", "-policy LERT -sites 3 -mpl 5 -warmup 200 -measure 3000 -slow-mttf 800 -slow-mttr 300 -brownout-mttf 1000 -brownout-mttr 200 -suspect -hedge-quantile 0.9 -audit", 0x6688cefa5d26638f},
	{"replication-rebuild", "-policy LERT -mpl 5 -warmup 200 -measure 3000 -objects 30 -copies 2 -rebuild -frag-size 2 -rebuild-delay 10 -mttf 1500 -mttr 600 -audit", 0x773f548843636c73},
	{"replication-load", "-policy BNQ -mpl 5 -warmup 200 -measure 3000 -objects 30 -copies 2 -rebuild -max-copies 4 -scan 200 -hot 1e-4 -cold 1e-5 -degraded reject -mttf 2000 -mttr 300 -audit", 0x98beda04400ec7db},
	{"par-single", "-policy LERT -sites 4 -mpl 5 -warmup 200 -measure 2000 -par-mode single -par-join 0.6 -audit", 0x3255e994b8c5fb8d},
	{"par-operator", "-policy LERT -sites 4 -mpl 5 -warmup 200 -measure 2000 -par-mode operator -par-join 0.6 -audit", 0x85a39043cedbdcee},
	{"par-dop", "-policy LERT -sites 4 -mpl 5 -warmup 200 -measure 2000 -par-mode dop -par-join 0.6 -audit", 0x28fa6416aa5ff1ea},
	{"parallel-chaos", "-policy LERT -sites 4 -mpl 5 -warmup 200 -measure 3000 -par-mode dop -par-join 0.8 -par-overhead 0.5 -deadline 300 -hedge-quantile 0.9 -par-hedge -objects 12 -copies 2 -mttf 1500 -mttr 300 -drop 0.03 -audit", 0x6cf116d2ed09921c},
	{"overload-chaos", "-policy LERT -sites 3 -mpl 5 -warmup 200 -measure 3000 -arrival mmpp -rate 0.15 -burst 4 -deadline 250 -hedge-quantile 0.9 -mttf 1500 -mttr 300 -drop 0.03 -audit", 0x631eda165791192a},
	{"gray-golden", "-policy LERT -sites 3 -mpl 5 -seed 3 -think 600 -warmup 300 -measure 8000 -slow-mttf 1500 -slow-mttr 500 -slow-factor 10 -brownout-mttf 2000 -brownout-mttr 300 -suspect -hedge-quantile 0.9 -audit", 0x31af046875984a0c},
}

// ciDqsimArgs returns the argument string of every "go run ./cmd/dqsim"
// line in CI's workflow, comments skipped and "-sched ${{ matrix.sched }}"
// stripped.
func ciDqsimArgs(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		if _, args, ok := strings.Cut(line, "go run ./cmd/dqsim "); ok {
			lines = append(lines, strings.TrimSpace(strings.Replace(args, "-sched ${{ matrix.sched }} ", "", 1)))
		}
	}
	if len(lines) == 0 {
		t.Fatal("no dqsim line in ci.yml")
	}
	return lines
}

// pinnedRun is a configuration with its pinned TraceDigest.
type pinnedRun struct {
	name string
	cfg  Config
	want uint64
}

// lifecycleDigests returns every pinned dqsim run plus two hand-built
// configurations, so a refactor of the query-attempt lifecycle —
// deadlines, hedge races, operator carriers, fault retries, replica
// rebuilds, gray failures — must reproduce each event stream bit for
// bit.
func lifecycleDigests(t *testing.T) []pinnedRun {
	t.Helper()
	var runs []pinnedRun
	for _, p := range dqsimPins {
		cfg, err := ParseArgs(strings.Fields(p.args))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		cfg.TraceDigest = true
		runs = append(runs, pinnedRun{p.name, cfg, p.want})
	}

	// The benchmark's chaos workload at seed 1: every opt-in subsystem
	// at once on the Table-7 system, as bench/sim.go builds it.
	chaos := Default()
	chaos.Audit = true
	chaos.TraceDigest = true
	chaos.Arrival = arrival.DefaultMMPP(0.15)
	chaos.Deadline = DeadlineConfig{Enabled: true, Deadline: 800}
	chaos.Hedge = DefaultHedge()
	chaos.Parallel = DefaultParallel()
	chaos.Parallel.Mode = policy.ParallelDOP
	chaos.Parallel.JoinProb = 0.6
	var err error
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

	// Degraded fetch reads under suspicion: each degraded selection
	// swaps the suspicion penalty out and back in.
	degraded := degradedSuspectConfig(t)
	degraded.TraceDigest = true

	return append(runs,
		pinnedRun{"bench-chaos", chaos, 0xf87982fd75b07981},
		pinnedRun{"degraded-suspect", degraded, 0xf5aa9a6533a184ad})
}

// TestLifecycleDigests pins every lifecycle configuration under both
// scheduler implementations, and fails if CI runs a dqsim line that
// dqsimPins does not pin. Any change to the lifecycle bookkeeping that
// reorders, adds or drops an event trips them.
func TestLifecycleDigests(t *testing.T) {
	for _, args := range ciDqsimArgs(t) {
		pinned := false
		for _, p := range dqsimPins {
			pinned = pinned || p.args == args
		}
		if !pinned {
			t.Errorf("CI runs dqsim %s, which has no pinned digest", args)
		}
	}
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

// BenchmarkLifecycle times one replication of each pinned dqsim command
// line per op, under each scheduler, and reports the events it fires.
// Auditing and the trace digest are off: performance is measured
// unaudited. Sub-benchmarks are named scheduler/pin, so
// -bench 'Lifecycle/^calendar$' runs one scheduler and
// -bench 'Lifecycle/./^par-' one family of pins.
func BenchmarkLifecycle(b *testing.B) {
	for _, impl := range []sim.Impl{sim.Calendar, sim.Heap} {
		b.Run(impl.String(), func(b *testing.B) {
			for _, p := range dqsimPins {
				b.Run(p.name, func(b *testing.B) {
					cfg, err := ParseArgs(strings.Fields(p.args))
					if err != nil {
						b.Fatal(err)
					}
					cfg.Scheduler = impl
					cfg.Audit, cfg.TraceDigest = false, false
					b.ReportAllocs()
					b.ResetTimer()
					var events uint64
					for i := 0; i < b.N; i++ {
						sys, err := New(cfg)
						if err != nil {
							b.Fatal(err)
						}
						events = sys.Run().EventsFired
					}
					if events == 0 {
						b.Fatal("the run fired no events")
					}
					b.ReportMetric(float64(events), "events/op")
				})
			}
		})
	}
}
