package system

import (
	"fmt"

	"dqalloc/internal/check"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/network"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
	"dqalloc/internal/site"
	"dqalloc/internal/stats"
	"dqalloc/internal/workload"
)

// Event kinds tagged onto this package's scheduler events for the trace
// digest (see sim.Event.Kind).
const (
	eventKindThink byte = 0x41
	eventKindBegin byte = 0x42
)

// System is one instantiated simulation of the paper's model. Build it
// with New and produce measurements with Run; a System is single-use.
type System struct {
	cfg   Config
	sched *sim.Scheduler

	sites []*site.Site
	ring  *network.Ring
	gen   *workload.Generator
	table *loadinfo.Table
	bcast *loadinfo.Broadcaster
	pol   policy.Policy
	env   *policy.Env

	think     []*rng.Stream // per-site terminal think streams
	thinkFns  []sim.Action  // per-site submit actions, preallocated so think events cost no closure
	objStream *rng.Stream   // object sampling (partial replication)

	measuring bool
	startAt   float64

	waits      []stats.Welford // per-class waiting times
	responses  []stats.Welford
	services   []stats.Welford
	execSvcs   []stats.Welford
	allWaits   stats.Welford
	batchW     *stats.BatchMeans
	allResp    stats.Welford
	remote     uint64
	transfers  uint64 // allocations that chose a remote site (measured window)
	allocs     uint64
	migrations uint64
	allSites   []int // cached candidate list for full replication

	aud    *check.Set // runtime invariant auditors, nil when auditing is off
	audErr error      // first violation, latched at collect

	faults   *faultRuntime // fault-injection state, nil when disabled
	rejected uint64        // queries given up on (no allowed site / retries exhausted / shed)

	slow *slowRuntime      // fail-slow injection state, nil when disabled
	susp *suspicionRuntime // gray-failure detector, nil when disabled

	repl  *replRuntime // self-healing replica manager, nil when disabled
	avail *fragAvail   // fragment reachability tracker, nil unless a placement runs under site failures

	noise *noise.Injector   // estimation-error injector, nil when disabled
	adm   *admissionRuntime // overload admission control, nil when disabled

	herd        uint64 // measured remote allocations onto a truly busier site
	estReadsErr stats.Welford
	estCPUErr   stats.Welford

	arr     *arrivalRuntime  // open-arrival sources, nil in closed mode
	dl      *deadlineRuntime // per-query deadlines, nil when disabled
	hedge   *hedgeRuntime    // hedged execution, nil when disabled
	aborted uint64           // queries withdrawn by a deadline abort

	par *parallelRuntime // operator-tree queries, nil when disabled

	// tracked gives every query an attempt record; set when deadlines,
	// hedging, faults or operator trees are on.
	tracked      bool
	hedgeScratch []int // reusable candidate buffer for hedge re-selection

	// respHists are the per-class measured response-time histograms (plus
	// the all-classes aggregate) behind the tail quantiles in Results and
	// the hedge trigger. Always built; adding a sample costs no
	// allocation and no events, so disabled-knob digests are unaffected.
	respHists   []*stats.LogHistogram
	allRespHist *stats.LogHistogram
}

// New assembles a system from cfg. The configuration is validated and the
// model is built but no events run until Run.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, sched: sim.NewImpl(cfg.Scheduler)}
	root := rng.NewStream(cfg.Seed)

	var err error
	s.gen, err = workload.NewGenerator(cfg.Classes, cfg.ClassProbs, cfg.EstimateMode, root.Child(1))
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}

	s.pol = cfg.CustomPolicy
	if s.pol == nil {
		if cfg.Tuning.Enabled() {
			// The anti-herd knobs draw from their own root child, so an
			// untuned run's policy stream (Child 2) is untouched.
			s.pol, err = policy.NewTuned(cfg.PolicyKind, cfg.NumSites, cfg.Tuning, root.Child(8))
		} else {
			s.pol, err = policy.New(cfg.PolicyKind, cfg.NumSites, root.Child(2))
		}
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}

	if cfg.Noise.Enabled {
		s.noise, err = noise.NewInjector(cfg.Noise, len(cfg.Classes), root.Child(7))
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Admission.Enabled {
		s.adm = &admissionRuntime{cfg: cfg.Admission, stream: root.Child(9)}
	}

	s.ring = network.NewRing(s.sched, cfg.NumSites, cfg.MsgTime)
	s.table = loadinfo.NewTable(cfg.NumSites)

	var view loadinfo.View = s.table
	if cfg.InfoMode == InfoPeriodic {
		s.bcast, err = loadinfo.NewBroadcaster(s.sched, s.table, cfg.InfoPeriod)
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
		view = s.bcast
	}

	s.env = &policy.Env{
		View:     view,
		NumSites: cfg.NumSites,
		NumDisks: cfg.NumDisks,
		DiskTime: cfg.DiskTime,
		NetTime: func(q *workload.Query, from, to int) float64 {
			if from == to {
				return 0
			}
			return 2 * s.ring.TransmitTime(cfg.Classes[q.Class].MsgLength)
		},
		CPUSpeeds: cfg.CPUSpeeds,
	}

	siteCfg := site.Config{
		NumDisks:      cfg.NumDisks,
		DiskTime:      cfg.DiskTime,
		DiskTimeDev:   cfg.DiskTimeDev,
		DiskDist:      cfg.DiskDist,
		DiskSelection: cfg.DiskSelection,
		Classes:       cfg.Classes,
	}
	if cfg.Migration.Enabled {
		siteCfg.CycleHook = s.maybeMigrate
	}
	s.sites = make([]*site.Site, cfg.NumSites)
	s.think = make([]*rng.Stream, cfg.NumSites)
	s.thinkFns = make([]sim.Action, cfg.NumSites)
	for i := range s.thinkFns {
		home := i
		s.thinkFns[i] = func() { s.submit(home) }
	}
	for i := range s.sites {
		sc := siteCfg
		if cfg.CPUSpeeds != nil {
			sc.CPUSpeed = cfg.CPUSpeeds[i]
		}
		s.sites[i], err = site.New(i, s.sched, sc, root.Child(uint64(100+i)), s.onExecDone)
		if err != nil {
			return nil, err
		}
		s.think[i] = root.Child(uint64(1000 + i))
	}

	if cfg.Placement != nil {
		s.objStream = root.Child(3)
	}

	if cfg.Fault.Enabled {
		if err := s.setupFaults(root); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Fault.SlowFaults() || cfg.Fault.Brownouts() {
		// Child 13 is the fail-slow injector's dedicated stream, so
		// crash-only fault runs never perturb their streams.
		if err := s.setupSlow(root.Child(13)); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Suspect.Enabled {
		if err := s.setupSuspicion(); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Replication.Enabled {
		// Child 11 is the replica manager's dedicated stream
		// (donor/target/drop-victim picks), so a manager-off run's
		// streams are untouched.
		if err := s.setupReplication(root.Child(11)); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Placement != nil && cfg.Fault.SiteFailures() {
		s.setupFragAvail()
	}

	if cfg.Arrival.Enabled {
		// Child 10 is the arrival layer's dedicated stream, so open-mode
		// runs never perturb the closed-mode streams.
		if err := s.setupArrivals(root.Child(10)); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	if cfg.Deadline.Enabled {
		s.dl = &deadlineRuntime{cfg: cfg.Deadline}
	}
	if cfg.Hedge.Enabled {
		s.hedge = &hedgeRuntime{cfg: cfg.Hedge}
	}
	if cfg.Parallel.Enabled {
		// Child 12 is the plan sampler's dedicated stream, so runs
		// without operator trees — and enabled runs whose plans all
		// degenerate to single scans — leave every other stream
		// untouched.
		if err := s.setupParallel(root.Child(12)); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	s.tracked = s.dl != nil || s.hedge != nil || s.faults != nil || s.par != nil

	if cfg.Audit {
		// Open arrivals unbound the population; hedge clones and
		// operator carriers join the audited population too, so any of
		// these knobs waives the closed bound.
		capacity := cfg.NumSites * cfg.MPL
		if cfg.Arrival.Enabled || cfg.Hedge.Enabled || cfg.Parallel.Enabled {
			capacity = 0
		}
		auditors := []check.Auditor{
			check.NewConservation(capacity, s.table.Total, s.siteCounts),
			check.NewUtilization(),
			check.NewLittlesLaw(),
			check.NewMonotonicity(),
			check.NewRingConservation(s.ring),
		}
		if s.faults != nil {
			auditors = append(auditors, check.NewFaultConservation(capacity, s.faults.totals))
		}
		if s.slow != nil {
			auditors = append(auditors, check.NewSlowFaultConservation(cfg.NumSites, s.slow.totals))
		}
		if s.adm != nil {
			auditors = append(auditors, check.NewAdmissionConservation(capacity, s.adm.totals))
		}
		if s.dl != nil || s.hedge != nil {
			auditors = append(auditors, check.NewDeadlineConservation(s.overloadTotals))
		}
		if s.repl != nil {
			auditors = append(auditors, check.NewReplicationConservation(s.replState))
		}
		if s.par != nil {
			auditors = append(auditors, check.NewOperatorConservation(s.parTotals))
		}
		s.aud = check.NewSet(auditors...)
		s.sched.Observe(s.aud.EventFired)
	}
	if cfg.TraceDigest {
		s.sched.EnableDigest()
	}

	n := len(cfg.Classes)
	s.waits = make([]stats.Welford, n)
	s.responses = make([]stats.Welford, n)
	s.services = make([]stats.Welford, n)
	s.execSvcs = make([]stats.Welford, n)
	s.batchW = stats.NewBatchMeans(24)
	s.respHists = make([]*stats.LogHistogram, n)
	for i := range s.respHists {
		s.respHists[i] = stats.NewLogHistogram(histLo, histHi, histRelErr)
	}
	s.allRespHist = stats.NewLogHistogram(histLo, histHi, histRelErr)
	return s, nil
}

// Run executes the simulation — warmup followed by the measured horizon —
// and returns the collected results.
func (s *System) Run() Results {
	if s.arr != nil {
		// Open mode: the arrival sources drive submissions; the closed
		// terminals stay idle.
		for _, src := range s.arr.sources {
			src.Start()
		}
	} else {
		// Every terminal starts in its think state.
		for home := range s.sites {
			for t := 0; t < s.cfg.MPL; t++ {
				s.startThink(home)
			}
		}
	}
	if s.cfg.Warmup > 0 {
		ev := s.sched.At(s.cfg.Warmup, s.beginMeasurement)
		ev.SetKind(eventKindBegin)
	} else {
		s.beginMeasurement()
	}
	end := s.cfg.Warmup + s.cfg.Measure
	s.sched.RunUntil(end)
	if s.bcast != nil {
		s.bcast.Stop()
	}
	return s.collect(end)
}

// beginMeasurement discards the warmup transient.
func (s *System) beginMeasurement() {
	now := s.sched.Now()
	s.measuring = true
	s.startAt = now
	for _, st := range s.sites {
		st.ResetStats(now)
	}
	s.ring.ResetStats(now)
	if s.faults != nil {
		s.faults.inj.ResetStats(now)
	}
	if s.slow != nil {
		s.slow.inj.ResetStats(now)
	}
	if s.avail != nil {
		s.availReset(now)
	}
	if s.aud != nil {
		s.aud.MeasureStarted(now)
	}
}

// startThink puts one terminal at the given site into its think state;
// when the think time expires the terminal submits a new query.
func (s *System) startThink(home int) {
	ev := s.sched.After(s.think[home].Exp(s.cfg.ThinkTime), s.thinkFns[home])
	ev.SetKind(eventKindThink)
}

// submit is a closed terminal's submission: a new query is generated
// and admitted.
func (s *System) submit(home int) {
	s.admit(s.gen.New(home, s.sched.Now()))
}

// admit realizes the allocation decision point of Figure 2 for a new
// query: its optimizer estimates are perturbed when estimation-error
// injection is on, it gets its object and lifecycle record, and it is
// handed to the allocation path.
func (s *System) admit(q *workload.Query) {
	if s.noise != nil {
		// Policies decide on the noisy estimates; execution consumes the
		// true sampled demands (ReadsTotal and the sites' service draws).
		s.noise.Perturb(q)
	}
	if s.cfg.Placement != nil {
		q.Object = s.objStream.Intn(s.cfg.Placement.NumObjects())
	}
	if s.tracked {
		q.Attempt = &attempt{}
	}
	if s.aud != nil {
		s.aud.Submitted(s.sched.Now())
	}
	if s.par != nil {
		s.parSubmit(q)
		return
	}
	s.allocate(q)
}

// allocate runs the policy and admission control for a new or
// resubmitted query: the policy chooses its execution site, the chosen
// site's admission bound is enforced, and the query is either admitted
// locally or shipped over the ring. A query no site may execute (empty
// candidate set, or every copy holder down) is rejected rather than
// dispatched.
func (s *System) allocate(q *workload.Query) {
	s.deadlineArm(q)
	exec := s.selectSite(q)
	if exec == policy.NoSite {
		if s.repl != nil {
			s.repl.noReplica++
		}
		s.rejectQuery(q)
		return
	}
	if exec < 0 || exec >= s.cfg.NumSites {
		panic(fmt.Sprintf("system: policy %s chose invalid site %d", s.pol.Name(), exec))
	}
	if s.cfg.Placement != nil && !q.Degraded && !s.holdsLive(exec, q.Object) {
		panic(fmt.Sprintf("system: policy %s chose site %d without a copy of object %d",
			s.pol.Name(), exec, q.Object))
	}
	if s.adm != nil && s.overloadedAt(exec) {
		s.admissionBounce(q)
		return
	}
	if s.repl != nil && s.repl.cfg.LoadDriven() {
		s.repl.mgr.Touch(q.Object, s.sched.Now())
	}
	s.recordAlloc(q, exec)
	s.commit(q, exec)
	s.faultArm(q)
	s.start(q)
	s.hedgeArm(q)
}

// recordAlloc accumulates the measured-window allocation statistics at
// the commit point — after admission, so bounced attempts do not count
// as allocations.
func (s *System) recordAlloc(q *workload.Query, exec int) {
	if !s.measuring {
		return
	}
	s.allocs++
	if exec != q.Home {
		s.transfers++
		// A herd transfer moves the query onto a site that is truly
		// busier than home at the decision instant: the policy's (stale
		// or noise-misled) view contradicted the ground-truth table.
		if s.table.NumQueries(exec) > s.table.NumQueries(q.Home) {
			s.herd++
		}
		if s.susp != nil && s.susp.det.Suspected(q.Home) {
			// The detector steered the query off its suspect home.
			s.susp.suspectTransfers++
		}
	}
	// Realized relative estimation error: what the policy believed vs the
	// query's true sampled demands. With noise off this measures the
	// intrinsic class-mean spread alone.
	if q.ReadsTotal > 0 {
		s.estReadsErr.Add(relErr(q.EstReads, float64(q.ReadsTotal)))
	}
	if truth := s.cfg.Classes[q.Class].PageCPUTime; truth > 0 {
		s.estCPUErr.Add(relErr(q.EstPageCPU, truth))
	}
}

// relErr returns |est − truth| / truth.
func relErr(est, truth float64) float64 {
	d := est - truth
	if d < 0 {
		d = -d
	}
	return d / truth
}

// onExecDone fires when a query's last CPU burst ends at its execution
// site. The query stops counting against the site; remote queries ship
// their results home before the terminal sees them.
func (s *System) onExecDone(q *workload.Query) {
	s.release(q)
	if a := rec(q); a != nil && a.inst != nil {
		// An operator carrier finished, not a whole query.
		s.parOpDone(a.inst, q)
		return
	}
	if !q.Remote() {
		s.complete(q)
		return
	}
	setPhase(q, phaseResult)
	size := s.cfg.Classes[q.Class].MsgLength
	s.charge(q, size)
	m := network.Message{
		From: q.Exec,
		To:   q.Home,
		Size: size,
		OnDeliver: func() {
			if !withdrawn(q) {
				s.complete(q)
			}
		},
	}
	if s.faults != nil {
		// A dropped result page set loses the execution's output; the
		// commitment was already released above, so only the loss is
		// recorded and the watchdog re-runs the query.
		m.OnDrop = func() { s.dropped(q) }
	}
	s.ring.Send(m)
}

// complete returns results to the query's terminal of origin, records
// metrics, and puts the terminal back into its think state. q is the
// finishing attempt (possibly a hedge clone); the race, fault watchdog,
// and deadline all settle against the logical query.
func (s *System) complete(q *workload.Query) {
	now := s.sched.Now()
	// The finishing attempt's realized slowdown feeds the gray-failure
	// detector, attributed to the site that executed it.
	s.suspectObserve(q)
	if a := rec(q); a != nil {
		a.phase = phaseDone
		key := rec(s.hedgeResolve(q))
		s.faultRetire(key)
		if s.deadlineRetire(key) {
			s.dl.met++
		}
		key.phase = phaseDone
	}
	if s.measuring {
		response := now - q.SubmitTime
		// Waiting is response minus pure execution service (disk + CPU).
		// Message transmission counts as waiting, matching the paper's
		// "execution time" of cpu+disk demands only (Section 5.2 quotes
		// 30.5, which excludes message time).
		wait := response - q.ExecService()
		s.waits[q.Class].Add(wait)
		s.responses[q.Class].Add(response)
		s.services[q.Class].Add(q.Service)
		s.execSvcs[q.Class].Add(q.ExecService())
		s.allWaits.Add(wait)
		s.batchW.Add(wait)
		s.allResp.Add(response)
		s.respHists[q.Class].Add(response)
		s.allRespHist.Add(response)
		if q.Remote() {
			s.remote++
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace.record(q, now, s.cfg.Classes[q.Class].Name)
		}
	}
	if s.aud != nil {
		s.aud.Completed(now)
	}
	if s.arr == nil {
		s.startThink(q.Home)
	}
}

// bound classifies q exactly as the allocation heuristics do, so that
// load-table increments and decrements always match.
func (s *System) bound(q *workload.Query) workload.Bound {
	return policy.QueryBound(q, s.cfg.DiskTime, s.cfg.NumDisks)
}

// collect snapshots all metrics at the end of the measured horizon.
func (s *System) collect(end float64) Results {
	n := len(s.cfg.Classes)
	r := Results{
		Policy:       s.pol.Name(),
		Seed:         s.cfg.Seed,
		MeasuredTime: end - s.startAt,
		Completed:    s.allWaits.Count(),
		ByClass:      make([]ClassResults, n),
	}
	r.MeanWait = s.allWaits.Mean()
	r.WaitCI = s.batchW.CI()
	r.MeanResponse = s.allResp.Mean()
	for c := 0; c < n; c++ {
		cr := ClassResults{
			Name:            s.cfg.Classes[c].Name,
			Completed:       s.waits[c].Count(),
			MeanWait:        s.waits[c].Mean(),
			MeanResp:        s.responses[c].Mean(),
			MeanService:     s.services[c].Mean(),
			MeanExecService: s.execSvcs[c].Mean(),
			RespQuantiles:   s.respHists[c].Summary(),
		}
		if cr.MeanExecService > 0 {
			cr.NormWait = cr.MeanWait / cr.MeanExecService
		}
		r.ByClass[c] = cr
	}
	if n >= 2 {
		r.Fairness = r.ByClass[0].NormWait - r.ByClass[1].NormWait
	}
	cpuUtil := make([]float64, len(s.sites))
	diskUtil := make([]float64, len(s.sites))
	for i, st := range s.sites {
		cpuUtil[i] = st.CPUUtilization(end)
		diskUtil[i] = st.DiskUtilization(end)
		r.CPUUtil += cpuUtil[i]
		r.DiskUtil += diskUtil[i]
	}
	r.CPUUtil /= float64(len(s.sites))
	r.DiskUtil /= float64(len(s.sites))
	r.SubnetUtil = s.ring.Utilization(end)
	if r.MeasuredTime > 0 {
		r.Throughput = float64(r.Completed) / r.MeasuredTime
	}
	if r.Completed > 0 {
		r.RemoteFrac = float64(s.remote) / float64(r.Completed)
	}
	if s.allocs > 0 {
		r.TransferFrac = float64(s.transfers) / float64(s.allocs)
	}
	r.Migrations = s.migrations
	r.QueriesRejected = s.rejected
	r.HerdTransfers = s.herd
	if s.transfers > 0 {
		r.HerdFrac = float64(s.herd) / float64(s.transfers)
	}
	r.EstReadsErr = s.estReadsErr.Mean()
	r.EstCPUErr = s.estCPUErr.Mean()
	r.RespQuantiles = s.allRespHist.Summary()
	r.OpenArrivals = s.openArrivals()
	r.QueriesAborted = s.aborted
	if s.dl != nil {
		r.DeadlineMet = s.dl.met
		r.DeadlineMisses = s.dl.missed
	}
	if s.hedge != nil {
		r.Hedged = s.hedge.launched
		r.HedgeWins = s.hedge.wins
	}
	if s.adm != nil {
		r.QueriesShed = s.adm.shed
		r.QueriesDeferred = s.adm.deferred
	}
	r.Availability = 1
	r.AvailResponse = r.MeanResponse
	if s.faults != nil {
		r.QueriesLost = s.faults.lost
		r.QueriesRetried = s.faults.retried
		r.SiteCrashes = s.faults.inj.Crashes()
		r.Downtime = make([]float64, len(s.sites))
		var down float64
		for i := range s.sites {
			r.Downtime[i] = s.faults.inj.Downtime(i, end)
			down += r.Downtime[i]
		}
		if r.MeasuredTime > 0 {
			r.Availability = 1 - down/(float64(len(s.sites))*r.MeasuredTime)
		}
		if r.Availability > 0 {
			r.AvailResponse = r.MeanResponse / r.Availability
		}
	}
	if s.slow != nil {
		tot := s.slow.inj.Totals()
		r.SlowEpisodes = tot.Episodes
		r.Brownouts = tot.Brownouts
		r.BrownoutTime = s.slow.inj.BrownoutTime(end)
		r.DegradedTime = make([]float64, len(s.sites))
		for i := range s.sites {
			r.DegradedTime[i] = s.slow.inj.DegradedTime(i, end)
		}
		r.HedgeWinsVsSlow = s.slow.hedgeWinsVsSlow
	}
	if s.susp != nil {
		r.SuspectTransfers = s.susp.suspectTransfers
		r.SuspectSites = s.susp.det.SuspectCount()
	}
	if s.cfg.Placement != nil {
		r.FragAvailability, r.MinFragAvailability = 1, 1
		if s.avail != nil {
			r.FragAvailability, r.MinFragAvailability = s.availFinal(end)
		}
	}
	if s.repl != nil {
		r.ReplicasRebuilt = s.repl.mgr.Rebuilt()
		r.ReplicasAdded = s.repl.mgr.Added()
		r.ReplicasDropped = s.repl.mgr.Dropped()
		r.RebuildsAborted = s.repl.mgr.Aborted()
		r.MeanRebuildLatency = s.repl.mgr.MeanRebuildLatency()
		r.DegradedReads = s.repl.degraded
		r.NoReplicaRejects = s.repl.noReplica
	}
	if s.par != nil {
		r.Operators = s.par.spawned
		r.OperatorsCompleted = s.par.completedOps
		r.OperatorsAborted = s.par.abortedOps
		r.OperatorsPreempted = s.par.preempted
		r.ParallelQueries = s.par.parallelQueries
		if s.par.parallelQueries > 0 {
			r.DOPHist = s.par.dopHist
		}
		r.IntermediateBytes = s.par.interBytes
		r.OpCPUBusy = s.par.opCPUBusy
		r.OpDiskBusy = s.par.opDiskBusy
		r.OpNetBusy = s.par.opNetBusy
	}
	r.TraceDigest = s.sched.Digest()
	r.EventsFired = s.sched.Fired()
	if s.aud != nil {
		s.audErr = s.aud.Finalize(check.Final{
			Start:        s.startAt,
			End:          end,
			Completed:    r.Completed,
			MeanResponse: r.MeanResponse,
			CPUUtil:      cpuUtil,
			DiskUtil:     diskUtil,
			SubnetUtil:   r.SubnetUtil,
		})
	}
	return r
}

// Audit returns the first invariant violation the runtime auditors
// detected, or nil — always nil when Config.Audit was off. Call it after
// Run; violations found mid-run are also reported here.
func (s *System) Audit() error {
	if s.aud == nil {
		return nil
	}
	if s.audErr != nil {
		return s.audErr
	}
	return s.aud.Err()
}

// siteCounts reports every site's instantaneous census for the
// conservation auditor.
func (s *System) siteCounts(buf []check.SiteCounts) []check.SiteCounts {
	for _, st := range s.sites {
		cpu, disk := st.Occupancy()
		buf = append(buf, check.SiteCounts{Active: st.Active(), AtCPU: cpu, AtDisk: disk})
	}
	return buf
}
