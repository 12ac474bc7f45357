// Command bench is the repository benchmark. It runs one workload for a
// fixed time, checks that every output is correct, and prints each metric
// as a "name value unit" line, then one JSON object on the last line:
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// run.sh builds this command, the reference server bench/refserve and
// cmd/dqserve from the checkout and passes every argument through. BENCHMARK.json at the repository root
// lists the workloads and metrics; the command reads it to check the
// names and units it emits.
//
// # Users and end-to-end metrics
//
// Researchers reproducing the paper pay host seconds for each simulated
// replication; operators of dqserve pay the round-trip time of each
// allocation decision. Every workload is a stream of ops, and every
// workload reports the same two end-to-end metrics about its op:
//
//   - run_s: wall time of one op, auditing and tracing off. A simulator
//     op is its replications (system.New and Run) on one P, and run_s
//     sums each replication's median time. A serve op is one POST
//     /v1/decide followed by POST /v1/report for the site chosen, timed
//     by the client from send to the last body byte, and run_s is the
//     median.
//   - setup_s: median set-up time. For the simulator, the op's
//     system.New calls, timed in 31 batches of 20 from a freshly
//     collected heap after 31 batches untimed; for serve, 7 cold starts
//     of dqserve, each from exec until /readyz answers 200.
//
// The host the benchmark was defined on, a 2-vCPU Xeon VM, is shared,
// and its speed swings by 20–40% over seconds to minutes. Timed alone,
// run_s spread by 8–31% of its median across ten seeds. So each time is
// scaled by a reference task of the same kind timed alternately with it
// (hostref.go), and reported for a host on which the reference takes its
// nominal time. Scaled, run_s spread by 1–6% and setup_s by 5–9% across
// the ten seeds of each of the two sets bench/baseline/spread-*.jsonl,
// whose medians agreed within 6%. run_s's bound in BENCHMARK.json, 0.25,
// is four times its largest spread; setup_s has the same bound, the
// largest allowed. The unscaled times are printed as raw_run_s and raw_setup_s, and
// the references' own times as host.ref_sim_s, or host.ref_op_us and
// host.ref_start_s.
//
// Every op is checked. A simulator op fails on a system.New error, on
// Results (or EventsFired) differing from the run's audited warm-up op
// with the same seed, and the warm-up fails on any auditor violation. A
// serve op fails on a transport error, a decide that is not a 200
// "policy" decision, or a report that is not a 204; the run also fails
// an op when a cold start does not drain with exit 0 or when /v1/stats
// disagrees with the traffic the clients sent.
//
// # Workloads
//
//   - paper: the Table-7 baseline (system.Default: 6 sites, MPL 20, think
//     350, MsgTime 1, closed terminals), one replication for each of the
//     six built-in policies, Warmup 5000 and Measure 50000: one Table-8
//     column. Per-event constant costs dominate (calendar, PS and FCFS,
//     site cycles); policy selection is a few percent, and LOCAL and
//     RANDOM bypass the cost scan.
//   - lan64: the same model at 64 sites, MsgTime 0.1, LERT, Warmup 500
//     and Measure 10000. It stresses what grows with the site count: the
//     O(N) cost scan, load-view reads, a 64-station ring near 58% busy
//     and a 1280-terminal calendar, ten times paper's working set.
//   - chaos: every opt-in subsystem at once on the Table-7 system with
//     LERT: open MMPP arrivals (rate 0.15, burst 4), deadline 800 with
//     default hedging, operator trees (JoinProb 0.6, dop mode), a
//     round-robin placement of 60 objects × 2 copies under the
//     self-healing manager, crashes (MTTF 8000, MTTR 300), fail-slow
//     episodes (SlowMTTF 20000) and suspicion; Warmup 500, Measure
//     50000. It exercises the lifecycle side tables of internal/system,
//     the replica, fault and arrival runtimes and most auditors, all of
//     which paper and lan64 bypass.
//   - serve: the real dqserve (-policy LERT -sites 6 -ttl 1s), built
//     once, driven by one closed-loop client on one keep-alive
//     connection after a 2 s unmeasured warm-up. Each report carries
//     seeded synthetic counts, so the load view keeps moving. The
//     measured time is cut into 6 segments and each latency figure is
//     the median over segments. The loop is closed because callers that
//     wait for their answer are the paper's terminal model, and because
//     an open loop's timer would cost more than the round trip it
//     paces. There is one client because on two cores a second one
//     competes with dqserve for them, and latency then measures the
//     scheduler. Only this workload runs serve and net/http; it runs
//     none of the simulator.
//
// # The traced run
//
// --trace 1 prints the per-layer metrics instead. Each layer is measured
// from outside, by timing calls into its public functions and reading
// public counters; nothing inside the program is instrumented. Spans stay
// in memory and -spans writes them as Chrome trace-event JSON.
//
// For the simulator, ops cycle plain, audited, traced and traced+audited.
// A traced replication is a "replication" span with system.New,
// system.Run and system.Audit children. Its policy is built exactly as
// system.New builds it and passed through Config.CustomPolicy wrapped to
// count Select calls and load-view reads and to time every 64th Select
// as a span. Before anything is timed the run checks that the wrapper
// reproduces every replication's TraceDigest and Results, and fails
// otherwise. Then each layer is driven alone on a private scheduler at
// the size and load the workload measured. The metrics, and the
// end-to-end metric each should move:
//
//   - sim.events: the behavioral checksum; a pure speed change keeps it.
//     sim.ns_per_event and sim.alloc_mb: host cost per event and heap
//     allocated per plain op (run_s).
//   - sim.churn_ns: the calendar with NumSites×MPL pending events (run_s
//     on lan64 and paper).
//   - queue.ps_ns, queue.fcfs_ns: a PS or FCFS center at the measured CPU
//     or disk utilization (run_s on paper and chaos).
//   - network.ring_ns: the ring at NumSites and the measured subnet
//     utilization (run_s on lan64).
//   - policy.select_calls, policy.select_ns, policy.frac,
//     loadinfo.view_reads: selection (run_s on lan64, a few percent;
//     at most about 2% on paper).
//   - system.new_frac (setup_s), system.run_self_frac: Run minus Select
//     (run_s on chaos).
//   - check.audited_run_s, check.audit_frac: what auditing adds; it moves
//     audited test and sweep time, never run_s.
//   - site.cpu_util, site.disk_util, network.subnet_util,
//     system.mean_response, system.p99_response, system.throughput,
//     system.remote_frac, and on chaos system.deadline_met_frac,
//     system.hedge_win_frac, system.rejected,
//     workload.operators_completed_frac, replica.rebuilt,
//     replica.rebuild_abort_frac, fault.crashes, fault.retried,
//     loadinfo.suspect_transfers, arrival.open_arrivals: statistics of
//     the modelled system, exact for a seed, averaged over the op's
//     replications. A speed-only change leaves all of them identical.
//
// For serve, the measured segments alternate untraced and traced; in a
// traced one every request is a span under its segment. The client side
// gives serve.decisions_per_s and the decide and report latency
// quantiles (p50, p99, p999); /v1/stats gives the server's
// enqueue-to-resolve serve.server_p50_us and serve.server_p99_us and its
// counters (requests, decided, fallback, shed, expired, late_decides,
// reports, breaker_opens). An in-process replay of the recorded request
// sequence times serve.DecodeDecideRequest and DecodeReportRequest,
// Core.Decide and Core.Report, the response encoder, and
// Server.Handler().ServeHTTP on a recorder with no sockets;
// serve.transport_us is serve.decide_p50_us minus
// serve.handler_decide_us. Handler, decoding, encoding and transport move
// run_s; the core and the server queue move the tail; reports reach the
// live table directly from the handler.
//
// trace.overhead_frac, on every workload, compares traced ops (or
// segments) with untraced ones in the same run. A per-layer metric of a
// layer the workload bypasses reads 0. Per-layer times are raw, not
// scaled by a reference: they have no bound, and the fractions among
// them compare times taken moments apart.
//
// # Comparing commits
//
//	bench -compare base.jsonl change.jsonl
//
// reads run reports appended with -o (one JSON line per run) and prints,
// per workload and end-to-end metric, each side's median and quartiles
// and a verdict judged by the metric's bound in BENCHMARK.json: worse or
// better when the medians differ by more than the bound, unchanged
// otherwise, and unresolved when either side's interquartile range
// exceeds the bound, unless every change run beats every base run.
// Behavioral drift, a different Results fingerprint for the same seed,
// is reported separately from speed.
//
// -cpuprofile and -memprofile profile the timed ops of an untraced
// simulator run and nothing else, apart from the reference slices
// between them, which appear under refSim.
//
// bench/baseline holds reference runs from the commit that introduced the
// benchmark, for later changes to compare against: two seed-1 sets of
// five runs per workload taken alternately (seed1-a, seed1-b), a seed-2
// set (seed2), one traced run per workload (traced), and the two
// ten-seed sets, seeds 31–40 (spread-a) and 1–10 (spread-b).
//
// cmd/dqbench's -suite mode is a separate, older set of testing.Benchmark
// suites; it stays as it is for the CI jobs that call it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options is one run's settings.
type options struct {
	workload   string
	seed       uint64
	seconds    time.Duration
	trace      bool
	scale      float64 // horizon and warm-up multiplier: 1 in runs, less in tests
	dqserve    string
	refserve   string
	cpuprofile string
	memprofile string
}

// metric is one measured number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects what a run measured and how many of its ops failed.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric    // end-to-end or per-layer, per the run's mode
	diag              map[string]metric    // supporting numbers: sample counts, secondary figures
	samples           map[string][]float64 // the per-op (or per-segment) values behind a metric
	fingerprint       string               // Results checksum of the seed's op (simulator only)
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, diag: map[string]metric{}, samples: map[string][]float64{}}
}

func (o *outcome) set(name string, v float64, unit string)  { o.metrics[name] = metric{v, unit} }
func (o *outcome) note(name string, v float64, unit string) { o.diag[name] = metric{v, unit} }

// fail counts one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(fmt.Sprintf(format, args...))
}

// problem keeps the first few failure descriptions for stderr.
func (o *outcome) problem(p string) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, p)
	}
}

// metricSpec and spec mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// finalize checks the emitted metrics against the spec: every name must
// be listed with the same unit, and every end-to-end metric present. In
// a traced run a per-layer metric the workload does not reach reads 0.
func (s *spec) finalize(out *outcome, trace bool) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for name, m := range out.metrics {
		switch u, ok := units[name]; {
		case !ok:
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		case u != m.Unit:
			return fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, u)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			if out.failed == 0 {
				return fmt.Errorf("metric %s has no value", name)
			}
			out.metrics[name] = metric{0, m.Unit}
		}
	}
	for _, m := range want {
		if _, ok := out.metrics[m.Name]; ok {
			continue
		}
		if !trace && out.failed == 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.metrics[m.Name] = metric{0, m.Unit}
	}
	// A diagnostic with nothing behind it, such as a quantile of a
	// segment whose every op failed, is left out.
	for name, m := range out.diag {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(out.diag, name)
		}
	}
	return nil
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run as appended to a -o file, for -compare and the
// baseline: the result line's fields and what produced them.
type report struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	result
	Diag        map[string]metric    `json:"diag"`
	Samples     map[string][]float64 `json:"samples,omitempty"`
	Fingerprint string               `json:"fingerprint,omitempty"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl         = fs.String("workload", "", "workload: paper, lan64, chaos or serve")
		seed       = fs.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds    = fs.Int("seconds", 10, "how long the run measures, in seconds")
		trace      = fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
		dqserve    = fs.String("dqserve", "", "path of a built cmd/dqserve, for the serve workload")
		refserve   = fs.String("refserve", "", "path of a built bench/refserve, the serve workload's reference server")
		specPath   = fs.String("spec", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
		outPath    = fs.String("o", "", "append the run's full report, one JSON line, to this file")
		spansPath  = fs.String("spans", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the timed ops to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile of the timed ops to this file")
		cmp        = fs.Bool("compare", false, "compare two report files: -compare base.jsonl change.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memprofile != "" {
		// Sampling restarts when the timed ops begin (startProfiles).
		runtime.MemProfileRate = 0
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files, got %d", fs.NArg())
		}
		return compare(stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch {
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case (*cpuprofile != "" || *memprofile != "") && (*trace == 1 || *wl == "serve"):
		return fmt.Errorf("profiles cover the timed ops of an untraced simulator run only")
	case *spansPath != "" && *trace != 1:
		return fmt.Errorf("-spans needs -trace 1")
	}
	o := options{
		workload:   *wl,
		seed:       *seed,
		seconds:    time.Duration(*seconds) * time.Second,
		trace:      *trace == 1,
		scale:      1,
		dqserve:    *dqserve,
		refserve:   *refserve,
		cpuprofile: *cpuprofile,
		memprofile: *memprofile,
	}
	out, log, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	if err := sp.finalize(out, o.trace); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "failed:", p)
	}
	printMetrics(stdout, out.metrics)
	printMetrics(stdout, out.diag)

	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if *outPath != "" {
		rep := report{
			Workload: o.workload, Seed: o.seed, Seconds: *seconds, Trace: o.trace,
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), result: res,
			Diag: out.diag, Samples: out.samples, Fingerprint: out.fingerprint,
		}
		if err := appendJSONLine(*outPath, rep); err != nil {
			return err
		}
	}
	if *spansPath != "" {
		if err := log.writeChrome(*spansPath); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runWorkload runs one workload in the mode o asks for.
func runWorkload(ctx context.Context, o options) (*outcome, *spanLog, error) {
	out := newOutcome()
	var log *spanLog
	if o.trace {
		log = newSpanLog()
	}
	if o.workload == "serve" {
		if o.trace {
			return out, log, tracedServe(ctx, o, out, log)
		}
		return out, log, measureServe(ctx, o, out)
	}
	w, err := newSimWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, nil, err
	}
	// The simulator runs on one goroutine. With one P the collector's
	// work runs on that core too, so an op's time does not depend on
	// whether the host lends the benchmark a second core at that moment.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if o.trace {
		return out, log, w.traced(ctx, o, out, log)
	}
	return out, log, w.measure(ctx, o, out)
}

// printMetrics prints "name value unit" lines in name order.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// appendJSONLine appends v as one line of JSON to path.
func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
