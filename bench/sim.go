package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/system"
)

// setup_s is the median over setupReps samples, each the op's set-up
// (its system.New calls) repeated setupBatch times from a freshly
// collected heap, divided by setupBatch, after as many batches untimed.
// One set-up takes tens of microseconds; a single one timed alone varies
// twofold between processes with the heap's state, a batch of them by
// about a tenth. Until the heap has grown to its working size, the
// median batch still varied by half between processes.
const (
	setupReps  = 31
	setupBatch = 20
)

// minOps is the fewest timed ops a run makes, however short --seconds is.
const minOps = 3

// simWorkload is one simulator workload: an op is its replications,
// each built with system.New and run to its horizon, back to back.
type simWorkload struct {
	name string
	cfgs []system.Config
}

// newSimWorkload builds the named workload's replication configs for a
// seed. scale multiplies every horizon; runs use 1, tests less.
func newSimWorkload(name string, seed uint64, scale float64) (*simWorkload, error) {
	var cfgs []system.Config
	switch name {
	case "paper":
		for _, k := range []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.BNQRD, policy.LERT, policy.Work} {
			c := system.Default()
			c.PolicyKind = k
			cfgs = append(cfgs, c)
		}
	case "lan64":
		// MsgTime 0.1 keeps the 64-station ring near 58% busy; at MsgTime
		// 1 it saturates and the run mostly measures a subnet backlog.
		c := system.Default()
		c.NumSites = 64
		c.MsgTime = 0.1
		c.Warmup, c.Measure = 500, 10000
		cfgs = append(cfgs, c)
	case "chaos":
		c, err := chaosConfig()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, c)
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper, lan64, chaos or serve)", name)
	}
	for i := range cfgs {
		cfgs[i].Seed = seed
		cfgs[i].Warmup *= scale
		cfgs[i].Measure *= scale
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return &simWorkload{name: name, cfgs: cfgs}, nil
}

// chaosConfig turns every opt-in subsystem on at once on the Table-7
// system: open MMPP arrivals, deadlines with hedging, operator trees,
// a self-healing partial placement, crashes, fail-slow episodes and
// suspicion.
func chaosConfig() (system.Config, error) {
	c := system.Default()
	c.Arrival = arrival.DefaultMMPP(0.15)
	c.Deadline = system.DeadlineConfig{Enabled: true, Deadline: 800}
	c.Hedge = system.DefaultHedge()
	c.Parallel = system.DefaultParallel()
	c.Parallel.Mode = policy.ParallelDOP
	c.Parallel.JoinProb = 0.6
	p, err := replica.NewRoundRobin(c.NumSites, 60, 2)
	if err != nil {
		return c, err
	}
	c.Placement = p
	c.Replication = replica.DefaultManager()
	c.Replication.FragmentSize = 2
	c.Replication.RebuildDelay = 10
	c.Fault = fault.DefaultSlow()
	c.Fault.MTTF = 8000
	c.Fault.MTTR = 300
	c.Fault.SlowMTTF = 20000
	c.Suspect = loadinfo.DefaultSuspect()
	c.Warmup, c.Measure = 500, 50000
	return c, nil
}

// rep is one finished replication.
type rep struct {
	res                system.Results
	fingerprint        uint64
	start              time.Time
	newD, runD, auditD time.Duration
	tp                 *tracedPolicy // nil unless the policy was wrapped
}

// runRep builds and runs one replication. audit attaches the invariant
// auditors; tp, when non-nil, replaces the built-in policy.
func runRep(cfg system.Config, audit bool, tp *tracedPolicy) (rep, error) {
	cfg.Audit = audit
	if tp != nil {
		cfg.CustomPolicy = tp
	}
	t0 := time.Now()
	sys, err := system.New(cfg)
	if err != nil {
		return rep{}, fmt.Errorf("system.New: %w", err)
	}
	t1 := time.Now()
	res := sys.Run()
	t2 := time.Now()
	r := rep{res: res, start: t0, newD: t1.Sub(t0), runD: t2.Sub(t1), tp: tp}
	if audit {
		err = sys.Audit()
		r.auditD = time.Since(t2)
		if err != nil {
			return r, fmt.Errorf("audit: %w", err)
		}
	}
	return r, nil
}

// fingerprint hashes every field of a replication's Results, so two
// replications agree exactly when their fingerprints do.
func fingerprint(res system.Results) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64()
}

// opFingerprint combines the op's per-replication fingerprints.
func opFingerprint(fps []uint64) string {
	h := fnv.New64a()
	for _, fp := range fps {
		fmt.Fprintf(h, "%016x", fp)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// opResult is one op: its replications' results and its timing.
type opResult struct {
	reps    []rep
	wall    time.Duration
	allocMB float64
}

// kind of op in a run: plain is what users run; audited adds the
// invariant auditors; traced wraps the policy and records spans.
type opKind struct {
	audited, traced bool
}

func (k opKind) String() string {
	switch {
	case k.traced && k.audited:
		return "traced+audited"
	case k.traced:
		return "traced"
	case k.audited:
		return "audited"
	default:
		return "plain"
	}
}

// runOp runs every replication of the workload once, timing the whole op
// from a freshly collected heap.
func (w *simWorkload) runOp(k opKind, log *spanLog) (opResult, error) {
	var tps []*tracedPolicy
	if k.traced {
		for _, c := range w.cfgs {
			tp, err := newTracedPolicy(c.PolicyKind, c.NumSites, c.Seed)
			if err != nil {
				return opResult{}, err
			}
			tp.log = log
			tps = append(tps, tp)
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	op := opResult{reps: make([]rep, 0, len(w.cfgs))}
	var err error
	for i, c := range w.cfgs {
		var tp *tracedPolicy
		if k.traced {
			// The replication span opens first so the sampled Select
			// spans recorded during Run can name it as their parent.
			tp = tps[i]
			tp.parent = log.open("replication", -1, 0)
		}
		var r rep
		r, err = runRep(c, k.audited, tp)
		if k.traced {
			log.close(tp.parent)
			t := addChild(log, "system.New", r.start, r.newD, tp.parent)
			t = addChild(log, "system.Run", t, r.runD, tp.parent)
			if k.audited {
				addChild(log, "system.Audit", t, r.auditD, tp.parent)
			}
		}
		op.reps = append(op.reps, r)
		if err != nil {
			break
		}
	}
	op.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	op.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	for i := range op.reps {
		op.reps[i].fingerprint = fingerprint(op.reps[i].res)
	}
	return op, err
}

// addChild records a child span of the given duration starting at t and
// returns its end.
func addChild(log *spanLog, name string, t time.Time, d time.Duration, parent int) time.Time {
	log.add(name, t, t.Add(d), parent, 0)
	return t.Add(d)
}

// check compares an op against the reference replications of the same
// configs and seed.
func (op opResult) check(ref []uint64) error {
	for i, r := range op.reps {
		if r.fingerprint != ref[i] {
			return fmt.Errorf("replication %d (%s): results differ from the reference (%d events vs reference run)",
				i, r.res.Policy, r.res.EventsFired)
		}
	}
	return nil
}

// events sums EventsFired over the op.
func (op opResult) events() float64 {
	var n uint64
	for _, r := range op.reps {
		n += r.res.EventsFired
	}
	return float64(n)
}

// measure runs the untraced benchmark: set-up repeated setupReps times,
// one audited warm-up op that fixes the reference results, then plain
// ops until the budget is spent. Every timed set-up batch follows a
// reference slice and every replication lies between two, which scale
// its time.
func (w *simWorkload) measure(ctx context.Context, o options, out *outcome) error {
	var setups, rawSetups []float64
	for i := 0; i < 2*setupReps; i++ {
		// The first half grows the heap to its working size untimed.
		timed := i >= setupReps
		var ref time.Duration
		if timed {
			ref = refSim()
			runtime.GC()
		}
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			for _, c := range w.cfgs {
				if _, err := system.New(c); err != nil {
					return fmt.Errorf("system.New: %w", err)
				}
			}
		}
		if timed {
			d := time.Since(t0) / setupBatch
			setups = append(setups, scaled(d, ref, refSimNominal))
			rawSetups = append(rawSetups, d.Seconds())
		}
	}

	warm, err := w.runOp(opKind{audited: true}, nil)
	out.attempted++
	if err != nil {
		out.fail("warm-up op: %v", err)
		return nil
	}
	want := make([]uint64, len(warm.reps))
	for i, r := range warm.reps {
		want[i] = r.fingerprint
	}
	out.fingerprint = opFingerprint(want)

	stop, err := startProfiles(o)
	if err != nil {
		return err
	}
	// Each replication is timed from a freshly collected heap between two
	// reference slices, and scaled by their mean. run_s sums, over the
	// op's replications, each one's median scaled time: a paper op lasts
	// most of a second, too long for two slices to say how fast the host
	// was while it ran.
	byRep := make([][]float64, len(w.cfgs))
	var runs, wall, refs []float64
	before := refSim()
	deadline := time.Now().Add(o.seconds)
	for (time.Now().Before(deadline) || len(runs) < minOps) && ctx.Err() == nil {
		out.attempted++
		op := make([]float64, len(w.cfgs))
		var opWall, opRef time.Duration
		var err error
		for i, c := range w.cfgs {
			runtime.GC()
			t0 := time.Now()
			var r rep
			r, err = runRep(c, false, nil)
			d := time.Since(t0)
			after := refSim()
			ref := (before + after) / 2
			before = after
			if err == nil && fingerprint(r.res) != want[i] {
				err = fmt.Errorf("replication %d (%s): results differ from the warm-up op's (%d events)",
					i, r.res.Policy, r.res.EventsFired)
			}
			if err != nil {
				break
			}
			op[i] = scaled(d, ref, refSimNominal)
			opWall += d
			opRef += ref
		}
		if err != nil {
			out.fail("op %d: %v", out.attempted, err)
			continue
		}
		sum := 0.0
		for i, s := range op {
			byRep[i] = append(byRep[i], s)
			sum += s
		}
		runs = append(runs, sum)
		wall = append(wall, opWall.Seconds())
		refs = append(refs, opRef.Seconds()/float64(len(op)))
	}
	if err := stop(); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	runS := 0.0
	for _, xs := range byRep {
		runS += median(xs)
	}
	out.set("run_s", runS, "s")
	out.set("setup_s", median(setups), "s")
	out.samples["run_s"], out.samples["setup_s"] = runs, setups
	out.note("raw_run_s", median(wall), "s")
	out.note("raw_setup_s", median(rawSetups), "s")
	out.note("host.ref_sim_s", median(refs), "s")
	out.note("samples.ops", float64(len(runs)), "count")
	out.note("samples.setup", float64(len(setups)), "count")
	out.note("audited_run_s", warm.wall.Seconds(), "s")
	out.note("alloc_mb", warm.allocMB, "MB")
	out.note("sim.events", warm.events(), "count")
	return nil
}

// startProfiles starts the CPU profile and turns heap sampling on when
// asked, so both cover only the timed ops. The returned function stops
// them and writes the files.
func startProfiles(o options) (func() error, error) {
	var cpuFile *os.File
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if o.memprofile != "" {
		// main turned sampling off at start-up; from here on every
		// sampled allocation belongs to a timed op.
		runtime.MemProfileRate = 512 * 1024
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if o.memprofile != "" {
			runtime.GC() // publishes the last op's allocation samples
			f, err := os.Create(o.memprofile)
			if err != nil {
				return err
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// traced runs the per-layer benchmark. It first checks that the traced
// policy leaves every replication's TraceDigest and Results unchanged,
// then cycles plain, audited, traced and traced+audited ops until the
// budget is spent, then times each layer alone at the size and load the
// workload measured.
func (w *simWorkload) traced(ctx context.Context, o options, out *outcome, log *spanLog) error {
	out.attempted++
	if err := w.checkWrapperNeutral(); err != nil {
		out.fail("traced policy changed behavior: %v", err)
	}

	kinds := []opKind{{}, {audited: true}, {traced: true}, {traced: true, audited: true}}
	times := map[opKind][]float64{}
	var ref []uint64
	var plainAlloc []float64
	var last opResult // latest traced, unaudited op
	var newNS, runNS, selNS, selCalls, selSampled, reads []float64
	deadline := time.Now().Add(o.seconds)
	for cycle := 0; (time.Now().Before(deadline) || cycle < 2) && ctx.Err() == nil; cycle++ {
		for _, k := range kinds {
			op, err := w.runOp(k, log)
			out.attempted++
			if err == nil && ref != nil {
				err = op.check(ref)
			}
			if err != nil {
				out.fail("%s op: %v", k, err)
				continue
			}
			if ref == nil {
				for _, r := range op.reps {
					ref = append(ref, r.fingerprint)
				}
				out.fingerprint = opFingerprint(ref)
			}
			times[k] = append(times[k], op.wall.Seconds())
			if k == (opKind{}) {
				plainAlloc = append(plainAlloc, op.allocMB)
			}
			if k == (opKind{traced: true}) {
				last = op
				var nw, rn, sel time.Duration
				var calls, sampled, rd float64
				for _, r := range op.reps {
					nw += r.newD
					rn += r.runD
					sel += r.tp.selectNS
					calls += float64(r.tp.calls)
					sampled += float64(r.tp.sampled)
					rd += float64(r.tp.reads)
				}
				newNS = append(newNS, float64(nw))
				runNS = append(runNS, float64(rn))
				selNS = append(selNS, float64(sel))
				selCalls = append(selCalls, calls)
				selSampled = append(selSampled, sampled)
				reads = append(reads, rd)
			}
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(times[opKind{}]) == 0 || len(newNS) == 0 {
		out.fail("no clean plain and traced ops to derive layer metrics from")
		return nil
	}

	plain := median(times[opKind{}])
	tracedT := median(times[opKind{traced: true}])
	events := last.events()
	out.set("sim.events", events, "count")
	out.set("sim.ns_per_event", plain*1e9/events, "ns")
	out.set("sim.alloc_mb", median(plainAlloc), "MB")
	out.note("samples.cycles", float64(len(times[opKind{}])), "count")

	// Select time: the sampled calls' mean, net of the timer, scaled to
	// every call of the op.
	tc := float64(timerCost())
	calls := median(selCalls)
	var perSel []float64
	for i := range selNS {
		if selSampled[i] > 0 {
			perSel = append(perSel, math.Max(selNS[i]/selSampled[i]-tc, 0))
		}
	}
	selectNS := 0.0
	if len(perSel) > 0 {
		selectNS = median(perSel)
	}
	opNS := tracedT * 1e9
	out.set("policy.select_calls", calls, "count")
	out.set("policy.select_ns", selectNS, "ns")
	out.set("policy.frac", calls*selectNS/opNS, "fraction")
	out.set("loadinfo.view_reads", median(reads), "count")
	out.set("system.new_frac", median(newNS)/opNS, "fraction")
	out.set("system.run_self_frac", (median(runNS)-calls*selectNS)/opNS, "fraction")
	audited := median(times[opKind{audited: true}])
	out.set("check.audited_run_s", audited, "s")
	out.set("check.audit_frac", audited/plain-1, "fraction")
	out.set("trace.overhead_frac", tracedT/plain-1, "fraction")

	// The layer microbenchmarks run at the size and the utilizations the
	// workload's model just reported.
	w.modelStats(last, out)
	c := w.cfgs[0]
	out.set("sim.churn_ns", churnNS(c.NumSites*c.MPL), "ns")
	out.set("queue.ps_ns", serverNS(true, out.metrics["site.cpu_util"].Value), "ns")
	out.set("queue.fcfs_ns", serverNS(false, out.metrics["site.disk_util"].Value), "ns")
	out.set("network.ring_ns", ringNS(c.NumSites, c.MsgTime, out.metrics["network.subnet_util"].Value), "ns")
	return nil
}

// checkWrapperNeutral runs every replication twice with TraceDigest on,
// plain and with the traced policy, and reports any difference in
// digest or Results.
func (w *simWorkload) checkWrapperNeutral() error {
	for _, c := range w.cfgs {
		c.TraceDigest = true
		plain, err := runRep(c, false, nil)
		if err != nil {
			return err
		}
		tp, err := newTracedPolicy(c.PolicyKind, c.NumSites, c.Seed)
		if err != nil {
			return err
		}
		wrapped, err := runRep(c, false, tp)
		if err != nil {
			return err
		}
		if plain.res.TraceDigest != wrapped.res.TraceDigest {
			return fmt.Errorf("%s: TraceDigest %016x plain vs %016x traced",
				c.PolicyName(), plain.res.TraceDigest, wrapped.res.TraceDigest)
		}
		if fingerprint(plain.res) != fingerprint(wrapped.res) {
			return fmt.Errorf("%s: Results differ between plain and traced runs", c.PolicyName())
		}
	}
	return nil
}

// modelStats reports the modelled components' statistics of an op,
// averaged over its replications. They are exact for a seed: a change
// that only speeds the simulator up leaves every one identical.
func (w *simWorkload) modelStats(op opResult, out *outcome) {
	n := float64(len(op.reps))
	var cpuU, diskU, netU, resp, p99, thr, remote float64
	var met, missed, hedged, wins, rejected, ops, opsDone, rebuilt, aborted float64
	var crashes, retried, suspect, open float64
	for _, r := range op.reps {
		res := r.res
		cpuU += res.CPUUtil / n
		diskU += res.DiskUtil / n
		netU += res.SubnetUtil / n
		resp += res.MeanResponse / n
		p99 += res.RespQuantiles.P99 / n
		thr += res.Throughput / n
		remote += res.RemoteFrac / n
		met += float64(res.DeadlineMet)
		missed += float64(res.DeadlineMisses)
		hedged += float64(res.Hedged)
		wins += float64(res.HedgeWins)
		rejected += float64(res.QueriesRejected)
		ops += float64(res.Operators)
		opsDone += float64(res.OperatorsCompleted)
		rebuilt += float64(res.ReplicasRebuilt)
		aborted += float64(res.RebuildsAborted)
		crashes += float64(res.SiteCrashes)
		retried += float64(res.QueriesRetried)
		suspect += float64(res.SuspectTransfers)
		open += float64(res.OpenArrivals)
	}
	out.set("site.cpu_util", cpuU, "fraction")
	out.set("site.disk_util", diskU, "fraction")
	out.set("network.subnet_util", netU, "fraction")
	out.set("system.mean_response", resp, "sim_t")
	out.set("system.p99_response", p99, "sim_t")
	out.set("system.throughput", thr, "1/sim_t")
	out.set("system.remote_frac", remote, "fraction")
	out.set("system.deadline_met_frac", ratio(met, met+missed), "fraction")
	out.set("system.hedge_win_frac", ratio(wins, hedged), "fraction")
	out.set("system.rejected", rejected, "count")
	out.set("workload.operators_completed_frac", ratio(opsDone, ops), "fraction")
	out.set("replica.rebuilt", rebuilt, "count")
	out.set("replica.rebuild_abort_frac", ratio(aborted, rebuilt+aborted), "fraction")
	out.set("fault.crashes", crashes, "count")
	out.set("fault.retried", retried, "count")
	out.set("loadinfo.suspect_transfers", suspect, "count")
	out.set("arrival.open_arrivals", open, "count")
	out.note("system.hedged", hedged, "count")
	out.note("system.operators", ops, "count")
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
