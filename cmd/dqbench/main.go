// Command dqbench runs the repository's fixed performance suite and
// writes a machine-readable BENCH_<date>.json report.
//
// The suite has four layers:
//
//   - kernel/churn — a pure scheduler microbenchmark: a rolling window
//     of pending events where every fired event schedules a
//     replacement. This isolates the future-event-list (heap + free
//     list) cost from the model.
//   - macro/<POLICY>/sites=<n> — one full replication (build + run) of
//     the closed terminal model per allocation policy and site count,
//     the same shape as BenchmarkSimulationThroughput. events/sec here
//     is real kernel throughput under model weight.
//   - overload/LERT/mmpp — one audited replication with the overload
//     extensions on (bursty MMPP arrivals, deadlines, hedging), timing
//     the open-arrival hot path.
//   - table8 — the Table-8 reproduction harness end to end, the
//     heaviest composite workload in the repo.
//   - parallel/<POLICY>/sites=<n>/reps=<r>/workers=<w> — a sharded
//     replication batch on exper.Runner's worker pool: `reps`
//     independent replications spread over `workers` goroutines
//     (workers = GOMAXPROCS), reporting *aggregate* events/sec across
//     the whole batch. This is multi-core kernel throughput — each
//     worker owns its scheduler, so the number scales with cores until
//     memory bandwidth saturates.
//   - replication/LERT/rebuild — one audited replication with a partial
//     placement, aggressive site crashes and the self-healing replica
//     manager on, timing the rebuild/degraded-read hot path (crash
//     wipes, deficit timers, fragment shipments, availability
//     recounts).
//   - serve/LERT/decide — the live allocation service's decision core:
//     a warmed serve.Core fed Report/Decide cycles, reported as
//     decisions/sec (the events_per_sec column counts decisions).
//
// Numbers come from testing.Benchmark, so ns/op, B/op and allocs/op
// mean exactly what `go test -bench` reports. The simulation inside
// each op is deterministic (fixed seed), so events/op — and therefore
// events/sec for a given wall time — is reproducible across runs.
//
// Usage:
//
//	dqbench [-quick] [-label note] [-o path] [-suite layer] [-sched impl]
//
// -quick shrinks horizons for CI smoke use; quick numbers are for
// "did it run, is throughput nonzero" checks, not for comparison
// against full-suite baselines. -sched selects the kernel's
// future-event list (calendar, the default, or heap, the reference
// implementation); both fire bit-identical event streams, so a heap
// report is a same-workload baseline for the calendar's numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"dqalloc/internal/arrival"
	"dqalloc/internal/exper"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/rng"
	"dqalloc/internal/serve"
	"dqalloc/internal/sim"
	"dqalloc/internal/system"
	"dqalloc/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dqbench:", err)
		os.Exit(1)
	}
}

// Report is the top-level JSON document.
type Report struct {
	// Date is the run date (UTC, YYYY-MM-DD); it also names the default
	// output file.
	Date string `json:"date"`
	// Label is free-form provenance (e.g. which tree was benchmarked).
	Label string `json:"label,omitempty"`
	// Quick marks reduced-horizon CI runs whose numbers must not be
	// compared against full-suite baselines.
	Quick bool `json:"quick"`
	// Scheduler is the kernel implementation every result in this report
	// ran on: "calendar" or "heap".
	Scheduler  string   `json:"scheduler"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Result is one benchmark's measurements.
type Result struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocations per op, as in
	// `go test -benchmem`.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// EventsPerOp is the number of scheduler events one op fires
	// (deterministic for the fixed seed); zero where not applicable.
	EventsPerOp uint64 `json:"events_per_op,omitempty"`
	// EventsPerSec = EventsPerOp / (NsPerOp in seconds).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dqbench", flag.ContinueOnError)
	var (
		quick = fs.Bool("quick", false, "shrink horizons for CI smoke runs")
		label = fs.String("label", "", "free-form provenance note stored in the report")
		out   = fs.String("o", "", "output path (default BENCH_<date>.json)")
		suite = fs.String("suite", "all", "which layer to run: all, kernel, macro, table8, overload, grayfail, parallel, parallel-query, replication, or serve")
		sched = fs.String("sched", "calendar", "scheduler implementation: calendar or heap")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	impl, err := sim.ParseImpl(*sched)
	if err != nil {
		return err
	}

	all := *suite == "all"
	switch *suite {
	case "all", "kernel", "macro", "table8", "overload", "grayfail", "parallel", "parallel-query", "replication", "serve":
	default:
		return fmt.Errorf("unknown suite %q (want all, kernel, macro, table8, overload, grayfail, parallel, parallel-query, replication, or serve)", *suite)
	}

	rep := Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Label:      *label,
		Quick:      *quick,
		Scheduler:  impl.String(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// SIGINT/SIGTERM between layers: stop benchmarking, but still flush
	// whatever completed into the report, then exit non-zero.
	if ctx.Err() == nil && (all || *suite == "kernel") {
		churn := 200_000
		if *quick {
			churn = 20_000
		}
		fmt.Fprintf(w, "kernel/churn (%d events/op, %s) ...\n", churn, impl)
		rep.Results = append(rep.Results, benchKernelChurn(impl, churn))
	}

	if ctx.Err() == nil && (all || *suite == "macro") {
		// One replication per policy and site count.
		measure := 5000.0
		if *quick {
			measure = 1500
		}
	macro:
		for _, kind := range []policy.Kind{policy.Local, policy.BNQ, policy.BNQRD, policy.LERT} {
			for _, sites := range []int{4, 8, 16} {
				if ctx.Err() != nil {
					break macro
				}
				r, err := benchMacro(impl, kind, sites, measure)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f events/sec\n",
					r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
				rep.Results = append(rep.Results, r)
			}
		}
	}

	if ctx.Err() == nil && (all || *suite == "overload") {
		// Macro-style run with every overload subsystem enabled: bursty
		// MMPP arrivals, deadlines, hedging — the tail-robustness hot path.
		measure := 4000.0
		if *quick {
			measure = 1200
		}
		r, err := benchOverload(impl, measure)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f events/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	if ctx.Err() == nil && (all || *suite == "grayfail") {
		// Gray-failure hot path: fail-slow episodes with rate rescaling,
		// ring brownouts, the suspicion detector and straggler hedging,
		// conservation auditors on.
		measure := 4000.0
		if *quick {
			measure = 1200
		}
		r, err := benchGrayFail(impl, measure)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f events/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	if ctx.Err() == nil && (all || *suite == "replication") {
		// Self-healing hot path: crashes, rebuild shipments, degraded
		// reads and the replication-conservation auditor, all on.
		measure := 4000.0
		if *quick {
			measure = 1200
		}
		r, err := benchReplication(impl, measure)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f events/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	if ctx.Err() == nil && (all || *suite == "parallel-query") {
		// Operator-tree hot path: every query a join plan, the bottom join
		// split fragment-and-replicate, operator auditors on.
		measure := 4000.0
		if *quick {
			measure = 1200
		}
		r, err := benchParallelQuery(impl, measure)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f events/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	if ctx.Err() == nil && (all || *suite == "serve") {
		// The live allocation service's decision core, in decisions/sec.
		decisions := 200_000
		if *quick {
			decisions = 20_000
		}
		r, err := benchServe(decisions)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %d allocs/op, %.0f decisions/sec\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	if ctx.Err() == nil && (all || *suite == "table8") {
		// Composite: the Table-8 harness.
		runner := exper.Runner{Reps: 2, BaseSeed: 1, Warmup: 1000, Measure: 6000, Scheduler: impl}
		if *quick {
			runner = exper.Runner{Reps: 1, BaseSeed: 1, Warmup: 300, Measure: 1500, Scheduler: impl}
		}
		fmt.Fprintln(w, "table8 ...")
		t8, err := benchTable8(runner)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, t8)
	}

	if ctx.Err() == nil && (all || *suite == "parallel") {
		// Sharded replications across the worker pool: aggregate
		// events/sec at GOMAXPROCS.
		measure := 4000.0
		reps := 2 * runtime.GOMAXPROCS(0)
		if *quick {
			measure = 1200
			reps = runtime.GOMAXPROCS(0)
		}
		r, err := benchParallel(impl, measure, reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %.0f ns/op, %.0f aggregate events/sec\n",
			r.Name, r.NsPerOp, r.EventsPerSec)
		rep.Results = append(rep.Results, r)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := writeFileAtomic(path, data); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d results)\n", path, len(rep.Results))
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted: partial report written to %s", path)
	}
	return nil
}

// writeFileAtomic writes data to path via a temp file and rename, so a
// crash or interrupt mid-write never leaves a truncated report where a
// previous good one stood.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bench-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// benchKernelChurn measures the scheduler alone: a rolling window of
// 1024 pending events, every fired event scheduling one replacement
// at an exponential offset, until `events` events have fired.
func benchKernelChurn(impl sim.Impl, events int) Result {
	const window = 1024
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := sim.NewImpl(impl)
			st := rng.NewStream(1)
			fired := 0
			var tick sim.Action
			tick = func() {
				fired++
				if fired+window <= events {
					s.After(st.Exp(1), tick)
				}
			}
			for j := 0; j < window; j++ {
				s.After(st.Exp(1), tick)
			}
			s.Run()
			if fired != events {
				b.Fatalf("fired %d events, want %d", fired, events)
			}
		}
	})
	return finish(fmt.Sprintf("kernel/churn/events=%d", events), br, uint64(events))
}

// benchMacro measures one full replication (system build + run) under
// the given policy and site count. The seed is fixed, so every op fires
// the identical event sequence.
func benchMacro(impl sim.Impl, kind policy.Kind, sites int, measure float64) (Result, error) {
	cfg := system.Default()
	cfg.Scheduler = impl
	cfg.PolicyKind = kind
	cfg.NumSites = sites
	cfg.Seed = 1
	cfg.Warmup = 500
	cfg.Measure = measure
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := system.New(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			res := sys.Run()
			events = res.EventsFired
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	name := fmt.Sprintf("macro/%s/sites=%d", cfg.PolicyName(), sites)
	return finish(name, br, events), nil
}

// benchOverload measures one audited replication with the overload
// extensions all on — MMPP arrivals at burst factor 4, deadlines and
// hedging — so regressions on the open-arrival hot path (histogram
// adds, watchdog arm/cancel, hedge races) show up in events/sec.
func benchOverload(impl sim.Impl, measure float64) (Result, error) {
	cfg := system.Default()
	cfg.Scheduler = impl
	cfg.PolicyKind = policy.LERT
	cfg.Seed = 1
	cfg.Warmup = 500
	cfg.Measure = measure
	cfg.Arrival = arrival.DefaultMMPP(0.45)
	cfg.Deadline = system.DefaultDeadline()
	cfg.Hedge = system.DefaultHedge()
	cfg.Audit = true
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := system.New(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			res := sys.Run()
			if err := sys.Audit(); err != nil {
				runErr = err
				b.Fatal(err)
			}
			events = res.EventsFired
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return finish("overload/LERT/mmpp", br, events), nil
}

// benchGrayFail measures one audited replication of the gray-failure
// stack: frequent fail-slow episodes rescaling CPU and disk rates, ring
// brownouts, the suspicion detector scoring every completion and
// straggler hedging racing suspect primaries.
func benchGrayFail(impl sim.Impl, measure float64) (Result, error) {
	cfg := system.Default()
	cfg.Scheduler = impl
	cfg.PolicyKind = policy.LERT
	cfg.Seed = 1
	cfg.Warmup = 500
	cfg.Measure = measure
	fc := fault.DefaultSlow()
	fc.SlowMTTF = 1000
	fc.SlowMTTR = 300
	fc.BrownoutMTTF = 1500
	fc.BrownoutMTTR = 200
	fc.BrownoutFactor = 3
	cfg.Fault = fc
	cfg.Suspect = loadinfo.DefaultSuspect()
	cfg.Hedge = system.DefaultHedge()
	cfg.Audit = true
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := system.New(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			res := sys.Run()
			if err := sys.Audit(); err != nil {
				runErr = err
				b.Fatal(err)
			}
			events = res.EventsFired
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return finish("grayfail/LERT/suspect", br, events), nil
}

// benchReplication measures one audited replication with a 2-copy
// partial placement, frequent site crashes and the self-healing replica
// manager on — the rebuild and degraded-read hot path.
func benchReplication(impl sim.Impl, measure float64) (Result, error) {
	cfg := system.Default()
	cfg.Scheduler = impl
	cfg.PolicyKind = policy.LERT
	cfg.Seed = 1
	cfg.Warmup = 500
	cfg.Measure = measure
	placement, err := replica.NewRoundRobin(cfg.NumSites, 10*cfg.NumSites, 2)
	if err != nil {
		return Result{}, err
	}
	cfg.Placement = placement
	cfg.Fault = fault.Default()
	cfg.Fault.MTTF = 1500
	cfg.Fault.MTTR = 600
	cfg.Replication = replica.DefaultManager()
	cfg.Replication.FragmentSize = 2
	cfg.Replication.RebuildDelay = 10
	cfg.Audit = true
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := system.New(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			res := sys.Run()
			if err := sys.Audit(); err != nil {
				runErr = err
				b.Fatal(err)
			}
			if res.ReplicasRebuilt == 0 {
				runErr = fmt.Errorf("replication bench rebuilt nothing")
				b.Fatal(runErr)
			}
			events = res.EventsFired
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return finish("replication/LERT/rebuild", br, events), nil
}

// benchParallelQuery measures one audited replication of the
// parallel-query study workload: every query an operator tree, dop-mode
// placement splitting the bottom join across sites, the operator
// conservation auditor checking every event — the plan engine's
// dispatch/ship/deliver hot path.
func benchParallelQuery(impl sim.Impl, measure float64) (Result, error) {
	cfg := exper.ParallelWorkloadConfig()
	cfg.Scheduler = impl
	cfg.PolicyKind = policy.LERT
	cfg.Parallel.Mode = policy.ParallelDOP
	cfg.Seed = 1
	cfg.Warmup = 500
	cfg.Measure = measure
	cfg.Audit = true
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := system.New(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			res := sys.Run()
			if err := sys.Audit(); err != nil {
				runErr = err
				b.Fatal(err)
			}
			if res.ParallelQueries == 0 {
				runErr = fmt.Errorf("parallel-query bench ran no plans")
				b.Fatal(runErr)
			}
			events = res.EventsFired
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return finish("parallel-query/LERT/dop", br, events), nil
}

// benchServe measures the live allocation service's synchronous decision
// path: a warmed serve.Core taking `decisions` Decide calls, with a
// fresh zero-load Report cycle every 64 decisions so the view never goes
// stale. events/op counts decisions, so events_per_sec is decisions/sec.
func benchServe(decisions int) (Result, error) {
	cfg := serve.Default()
	base := time.Unix(0, 0)
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core, err := serve.NewCore(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			now := base
			queries := make([]workload.Query, cfg.NumSites*len(cfg.Classes))
			for d := 0; d < decisions; d++ {
				if d%64 == 0 {
					for s := 0; s < cfg.NumSites; s++ {
						if err := core.Report(s, 0, 0, 0, 0, 0, 0, now); err != nil {
							runErr = err
							b.Fatal(err)
						}
					}
				}
				q := &queries[d%len(queries)]
				class := d % len(cfg.Classes)
				*q = workload.Query{
					Class:      class,
					Home:       d % cfg.NumSites,
					EstReads:   cfg.Classes[class].NumReads,
					EstPageCPU: cfg.Classes[class].PageCPUTime,
				}
				q.Exec = q.Home
				if site, out := core.Decide(q, now); out != serve.OutcomeDecided || site == policy.NoSite {
					runErr = fmt.Errorf("decision %d: outcome %v site %d", d, out, site)
					b.Fatal(runErr)
				}
				now = now.Add(50 * time.Microsecond)
			}
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	name := fmt.Sprintf("serve/%s/decide/decisions=%d", cfg.Policy, decisions)
	return finish(name, br, uint64(decisions)), nil
}

// benchTable8 measures the Table-8 reproduction harness end to end
// (think-time sweep × six policies, replicated).
func benchTable8(r exper.Runner) (Result, error) {
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := exper.Table8(r)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("table8 returned no rows")
			}
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	return finish("table8", br, 0), nil
}

// benchParallel measures a sharded replication batch: `reps`
// independent replications of the default macro model spread across
// exper.Runner's worker pool at GOMAXPROCS workers, each worker owning
// its own scheduler and model. events/op is the deterministic batch
// total (fixed seed sequence), so events/sec is aggregate multi-core
// kernel throughput.
func benchParallel(impl sim.Impl, measure float64, reps int) (Result, error) {
	cfg := system.Default()
	cfg.PolicyKind = policy.LERT
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	workers := runtime.GOMAXPROCS(0)
	runner := exper.Runner{
		Reps:      reps,
		BaseSeed:  1,
		Warmup:    500,
		Measure:   measure,
		Parallel:  true,
		Workers:   workers,
		Scheduler: impl,
	}
	var events uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg, err := runner.Run(cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			events = agg.Events
		}
	})
	if runErr != nil {
		return Result{}, runErr
	}
	name := fmt.Sprintf("parallel/%s/sites=%d/reps=%d/workers=%d",
		cfg.PolicyName(), cfg.NumSites, reps, workers)
	return finish(name, br, events), nil
}

// finish converts a BenchmarkResult into a report Result.
func finish(name string, br testing.BenchmarkResult, eventsPerOp uint64) Result {
	ns := float64(br.T.Nanoseconds()) / float64(br.N)
	res := Result{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     ns,
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		EventsPerOp: eventsPerOp,
	}
	if eventsPerOp > 0 && ns > 0 {
		res.EventsPerSec = float64(eventsPerOp) * 1e9 / ns
	}
	return res
}
