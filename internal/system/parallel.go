package system

import (
	"fmt"
	"math"

	"dqalloc/internal/check"
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file is the parallel-query extension: queries may be small
// operator trees (internal/workload plans) instead of monolithic
// reads×(disk→CPU) loops, and the allocator may split one query across
// sites — per-operator placement, and fragment-and-replicate splits of
// the bottom join at a cost-model-chosen degree of parallelism.
// Operators execute as "carrier" queries on the existing site engine
// (their per-resource demands encoded in ReadsTotal/PageCPU), and
// intermediate results ship between sites as ring messages tagged
// eventKindOperator.
//
// Everything here is gated on s.par != nil; a run with
// Config.Parallel.Enabled == false schedules no extra events, draws no
// extra random numbers, and is bit-identical to a build without the
// subsystem. The plan sampler draws from its own dedicated root child
// (12), so even an enabled run whose every plan degenerates to a single
// scan (JoinProb 0) leaves all other streams untouched and reproduces
// the monolithic model event for event.
//
// Simplifications, stated rather than hidden: carriers bypass admission
// control (the logical query was already admitted at submission), plans
// are not migrated (Config.Validate forbids the combination), lost
// operators are not individually retried — any fault touching a plan
// collapses the whole plan into a rejection, which the watchdog-free
// carriers make exactly-once — and a hedge clone of a non-scan operator
// starts at its site without re-shipping the inputs (the model assumes
// the small intermediate pages travel with the clone descriptor).

// eventKindOperator tags ring transmissions carrying an operator's
// intermediate result pages, so traces distinguish intra-query data
// flow from query descriptors and fragment copies.
const eventKindOperator byte = 0x23

// ParallelConfig parameterizes operator-tree queries. The zero value
// (Enabled == false) disables them.
type ParallelConfig struct {
	// Enabled turns operator-tree queries on.
	Enabled bool
	// Mode selects how multi-operator plans are placed (single site,
	// per-operator, or per-operator with a fragment-and-replicate split
	// of the bottom join).
	Mode policy.ParallelMode

	// JoinProb is the probability a submitted query becomes a join tree;
	// the rest stay single-scan plans, observably the monolithic query.
	JoinProb float64
	// FilterProb is the probability a join tree gets a filter above the
	// join.
	FilterProb float64
	// SelScan and SelJoin are the scan and join selectivities (output
	// pages per input page).
	SelScan, SelJoin float64
	// JoinPageCPU and FilterPageCPU are the per-page CPU means of join
	// and filter operators; scans use the query class's PageCPUTime.
	JoinPageCPU, FilterPageCPU float64
	// ShipBytesPerPage converts intermediate-result pages into ring
	// transmission size.
	ShipBytesPerPage float64

	// MaxDOP caps the fragment-and-replicate split width; 0 means
	// NumSites.
	MaxDOP int
	// SplitOverhead is the per-extra-site startup price the DOP cost
	// model charges (on top of shipping the replicated input once more).
	SplitOverhead float64

	// Hedge arms the straggler hedge on remotely dispatched operators:
	// an operator still unfinished at its class's hedge delay races a
	// clone at the next-best site, reusing the hedged-execution
	// machinery at operator granularity. Requires Hedge.Enabled.
	Hedge bool
}

// DefaultParallel returns a moderate operator-tree workload: 30% of
// queries become joins, placed per-operator.
func DefaultParallel() ParallelConfig {
	return ParallelConfig{
		Enabled:          true,
		Mode:             policy.ParallelOperator,
		JoinProb:         0.3,
		FilterProb:       0.25,
		SelScan:          0.5,
		SelJoin:          0.25,
		JoinPageCPU:      0.1,
		FilterPageCPU:    0.02,
		ShipBytesPerPage: 0.05,
		SplitOverhead:    2,
	}
}

// validate reports the first parallel-config error, if any.
func (p ParallelConfig) validate() error {
	if !p.Enabled {
		return nil
	}
	if !p.Mode.Valid() {
		return fmt.Errorf("system: invalid parallel mode %d", p.Mode)
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{{"JoinProb", p.JoinProb}, {"FilterProb", p.FilterProb}} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("system: parallel %s %v outside [0,1]", pr.name, pr.v)
		}
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{{"SelScan", p.SelScan}, {"SelJoin", p.SelJoin}} {
		if math.IsNaN(pr.v) || math.IsInf(pr.v, 0) || pr.v <= 0 {
			return fmt.Errorf("system: parallel %s %v must be positive and finite", pr.name, pr.v)
		}
	}
	for _, pr := range [...]struct {
		name string
		v    float64
	}{
		{"JoinPageCPU", p.JoinPageCPU}, {"FilterPageCPU", p.FilterPageCPU},
		{"ShipBytesPerPage", p.ShipBytesPerPage}, {"SplitOverhead", p.SplitOverhead},
	} {
		if math.IsNaN(pr.v) || math.IsInf(pr.v, 0) || pr.v < 0 {
			return fmt.Errorf("system: parallel %s %v must be finite and non-negative", pr.name, pr.v)
		}
	}
	if p.MaxDOP < 0 {
		return fmt.Errorf("system: parallel MaxDOP %d < 0", p.MaxDOP)
	}
	return nil
}

// Operator-instance lifecycle states.
const (
	// instPending: placed but not yet dispatched (waiting on inputs).
	instPending int8 = iota
	// instDispatched: carrier committed to its site (in transit or
	// executing), possibly racing a hedge clone.
	instDispatched
	// instDone: retired — completed, withdrawn, or lost.
	instDone
)

// opInstance is one placed instance of one plan operator. Unsplit
// operators have exactly one; a fragment-and-replicate split join (and
// its partitioned input scan) has one per chosen site.
type opInstance struct {
	pe *planExec
	// node is the plan operator index.
	node int
	// site is the placement decision.
	site int
	// outBytes is the ring size of this instance's output shipment.
	outBytes float64
	// outTo are the consumer instances this instance's output feeds.
	outTo []*opInstance
	// waiting counts input shipments not yet delivered; the instance
	// dispatches when it reaches zero.
	waiting int
	state   int8

	// hedgeRace holds the primary carrier and, while the operator is
	// hedged, its racing clone.
	hedgeRace
}

// isScan reports whether the instance executes a scan operator.
func (in *opInstance) isScan() bool {
	return in.pe.plan.Ops[in.node].Kind == workload.OpScan
}

// planExec is the execution state of one multi-operator query.
type planExec struct {
	q    *workload.Query
	plan workload.Plan
	// insts[node] are the placed instances of each operator.
	insts [][]*opInstance
	// rootRemaining counts root-instance results not yet delivered home.
	rootRemaining int
	// partNode/splitNode identify the fragment-and-replicate pair
	// (partitioned scan feeding its colocated join instance); -1 outside
	// DOP mode.
	partNode, splitNode int
	// aborted latches plan collapse (deadline abort or fault), making
	// every in-flight callback for the plan a no-op.
	aborted bool
}

// parallelRuntime is the per-run state of the parallel-query subsystem.
type parallelRuntime struct {
	cfg ParallelConfig
	gen *workload.PlanGen

	scratch  []int  // reusable site pool for split placement
	siteSeen []bool // reusable distinct-site marker for the DOP histogram

	// Operator ledger (check.OperatorTotals).
	spawned      uint64
	completedOps uint64
	abortedOps   uint64
	preempted    uint64
	inFlight     int
	commits      uint64
	releases     uint64
	tableLive    int

	// Deadline-withdrawal ledger (check.DeadlineTotals extension):
	// dlOpsAborted counts attempts withdrawn by deadline aborts,
	// dlOpReleases the load-table releases performed while withdrawing —
	// equal exactly when each withdrawal releases once.
	dlOpsAborted  uint64
	dlOpReleases  uint64
	dlWithdrawing bool

	// Results surface.
	parallelQueries uint64
	dopHist         []uint64
	interBytes      float64
	opCPUBusy       float64
	opDiskBusy      float64
	opNetBusy       float64
}

// setupParallel builds the parallel runtime during New. stream must be
// the root's dedicated plan-sampler child (12).
func (s *System) setupParallel(stream *rng.Stream) error {
	cfg := s.cfg.Parallel
	gcfg := workload.PlanGenConfig{
		JoinProb:         cfg.JoinProb,
		FilterProb:       cfg.FilterProb,
		SelScan:          cfg.SelScan,
		SelJoin:          cfg.SelJoin,
		JoinPageCPU:      cfg.JoinPageCPU,
		FilterPageCPU:    cfg.FilterPageCPU,
		ShipBytesPerPage: cfg.ShipBytesPerPage,
	}
	if s.cfg.Placement != nil {
		gcfg.NumFrags = s.cfg.Placement.NumObjects()
	}
	gen, err := workload.NewPlanGen(gcfg, stream)
	if err != nil {
		return err
	}
	s.par = &parallelRuntime{cfg: cfg, gen: gen}
	return nil
}

// parTotals implements the closure read by check.NewOperatorConservation.
func (s *System) parTotals() check.OperatorTotals {
	p := s.par
	return check.OperatorTotals{
		Spawned:   p.spawned,
		Completed: p.completedOps,
		Aborted:   p.abortedOps,
		Preempted: p.preempted,
		InFlight:  p.inFlight,
		Commits:   p.commits,
		Releases:  p.releases,
		TableLive: p.tableLive,
	}
}

// parNumFrags returns the fragment count plans are validated against (0
// = unfragmented).
func (s *System) parNumFrags() int {
	if s.cfg.Placement != nil {
		return s.cfg.Placement.NumObjects()
	}
	return 0
}

// pages rounds a fractional page count to at least one page, matching
// workload's clamp convention.
func pages(x float64) int {
	n := int(math.Round(x))
	if n < 1 {
		return 1
	}
	return n
}

// parSubmit is the allocation entry point with operator trees on: the
// sampler draws a plan, single-operator plans take the monolithic path
// unchanged, and multi-operator plans enter the engine.
func (s *System) parSubmit(q *workload.Query) {
	plan := s.par.gen.New(q, s.cfg.Classes[q.Class].NumReads)
	if len(plan.Ops) == 1 {
		s.allocate(q)
		return
	}
	if err := plan.Validate(s.parNumFrags(), s.cfg.NumSites); err != nil {
		panic(fmt.Sprintf("system: generated plan invalid: %v", err))
	}
	s.parStart(q, plan)
}

// parStart places and launches a multi-operator plan. A plan that
// cannot be placed (no up candidate for some operator) is rejected
// whole — there is no per-operator retry.
func (s *System) parStart(q *workload.Query, plan workload.Plan) {
	s.deadlineArm(q)
	pe := &planExec{q: q, plan: plan, partNode: -1, splitNode: -1}
	if !s.parPlace(pe) {
		s.rejectQuery(q)
		return
	}
	a := rec(q)
	a.phase = phaseCommitted
	a.plan = pe
	s.par.parallelQueries++
	s.parRecordDOP(pe)
	for _, insts := range pe.insts {
		for _, inst := range insts {
			if pe.aborted {
				return
			}
			if inst.waiting == 0 && inst.state == instPending {
				s.parDispatch(inst)
			}
		}
	}
}

// parRecordDOP records the plan's realized degree of parallelism — the
// number of distinct sites its instances landed on — in the histogram.
func (s *System) parRecordDOP(pe *planExec) {
	p := s.par
	if p.dopHist == nil {
		p.dopHist = make([]uint64, s.cfg.NumSites)
		p.siteSeen = make([]bool, s.cfg.NumSites)
	}
	distinct := 0
	for _, insts := range pe.insts {
		for _, inst := range insts {
			if !p.siteSeen[inst.site] {
				p.siteSeen[inst.site] = true
				distinct++
			}
		}
	}
	for _, insts := range pe.insts {
		for _, inst := range insts {
			p.siteSeen[inst.site] = false
		}
	}
	p.dopHist[distinct-1]++
}

// parCarrier builds the carrier query executing one operator: the
// site engine and load table see a query with the operator's demands.
// Scans reference their fragment; non-scans keep the logical query's
// object (they need no fragment access, but the replication ledger
// stays balanced).
func (s *System) parCarrier(pe *planExec, node int) *workload.Query {
	op := pe.plan.Ops[node]
	q := pe.q
	c := &workload.Query{
		ID:         q.ID,
		Class:      q.Class,
		Home:       q.Home,
		Exec:       q.Home,
		Object:     q.Object,
		ReadsTotal: op.Reads,
		EstReads:   float64(op.Reads),
		EstPageCPU: op.PageCPU,
		PageCPU:    op.PageCPU,
		SubmitTime: q.SubmitTime,
	}
	if op.PageCPU == 0 {
		c.EstPageCPU = s.cfg.Classes[q.Class].PageCPUTime
	}
	if op.Kind == workload.OpScan {
		c.Object = op.Frag
	}
	return c
}

// selectAmong runs the allocation policy for q over the given candidate
// set (nil = all sites), preserving the ambient Env.
func (s *System) selectAmong(q *workload.Query, cands []int) int {
	saved := s.env.Candidates
	s.env.Candidates = cands
	exec := s.pol.Select(q, q.Home, s.env)
	s.env.Candidates = saved
	return exec
}

// parPlace places every operator of the plan according to the
// configured mode, wires the dataflow edges, and initializes the
// dispatch-readiness counters. Reports false when some operator has no
// feasible site.
func (s *System) parPlace(pe *planExec) bool {
	plan := &pe.plan
	n := len(plan.Ops)
	pe.insts = make([][]*opInstance, n)

	switch s.par.cfg.Mode {
	case policy.ParallelSingle:
		// One policy-chosen anchor hosts the whole tree; under a
		// placement, scans still go to fragment holders (the anchor may
		// not hold their fragments).
		var cands []int
		if s.cfg.Placement != nil {
			cands = s.candidateSites(pe.q)
		}
		anchor := s.selectAmong(pe.q, cands)
		if anchor == policy.NoSite {
			return false
		}
		for i, op := range plan.Ops {
			if op.Kind == workload.OpScan && s.cfg.Placement != nil {
				if !s.parPlaceOp(pe, i) {
					return false
				}
				continue
			}
			s.parInstAt(pe, i, anchor)
		}
	case policy.ParallelOperator:
		for i := range plan.Ops {
			if !s.parPlaceOp(pe, i) {
				return false
			}
		}
	case policy.ParallelDOP:
		split := -1
		for i, op := range plan.Ops {
			if op.Kind != workload.OpJoin {
				continue
			}
			allScans := true
			for _, in := range op.Inputs {
				if plan.Ops[in].Kind != workload.OpScan {
					allScans = false
					break
				}
			}
			if allScans {
				split = i
				break
			}
		}
		for i := range plan.Ops {
			if split >= 0 && (i == split || i == plan.Ops[split].Inputs[0]) {
				continue // placed by parPlaceSplit below
			}
			if !s.parPlaceOp(pe, i) {
				return false
			}
		}
		if split >= 0 && !s.parPlaceSplit(pe, split) {
			return false
		}
	}

	parent := pe.plan.Parent()
	for node := 0; node < n; node++ {
		p := parent[node]
		if p < 0 {
			continue
		}
		for i, inst := range pe.insts[node] {
			if node == pe.partNode && p == pe.splitNode {
				// Partitioned scan share i feeds only its colocated join
				// instance i.
				inst.outTo = pe.insts[p][i : i+1]
			} else {
				inst.outTo = pe.insts[p]
			}
			for _, tgt := range inst.outTo {
				tgt.waiting++
			}
		}
	}
	pe.rootRemaining = len(pe.insts[plan.Root])
	return true
}

// parInstAt places one unsplit instance of node at a fixed site.
func (s *System) parInstAt(pe *planExec, node, site int) {
	pe.insts[node] = []*opInstance{newInst(pe, node, site, s.parCarrier(pe, node), pe.plan.Ops[node].OutBytes)}
}

// newInst builds one operator instance with carrier c as its primary.
func newInst(pe *planExec, node, site int, c *workload.Query, outBytes float64) *opInstance {
	inst := &opInstance{pe: pe, node: node, site: site, outBytes: outBytes}
	inst.primary = c
	c.Attempt = &attempt{race: &inst.hedgeRace, inst: inst, spawned: true}
	return inst
}

// parPlaceOp places one operator via the allocation policy, costing it
// by its own demands — the multi-resource balanced placement. Scans
// under a placement are confined to their fragment's holders.
func (s *System) parPlaceOp(pe *planExec, node int) bool {
	c := s.parCarrier(pe, node)
	var cands []int
	if pe.plan.Ops[node].Kind == workload.OpScan && s.cfg.Placement != nil {
		cands = s.candidateSites(c)
		if len(cands) == 0 {
			return false
		}
	}
	site := s.selectAmong(c, cands)
	if site == policy.NoSite {
		return false
	}
	pe.insts[node] = []*opInstance{newInst(pe, node, site, c, pe.plan.Ops[node].OutBytes)}
	return true
}

// parPlaceSplit places a fragment-and-replicate split of join: its
// partitioned input scan (Inputs[0]) is sharded over k policy-ranked
// sites with a colocated join instance each, while the remaining inputs
// replicate their output to every chosen site. k is the requested DOP
// or the cost model's argmin.
func (s *System) parPlaceSplit(pe *planExec, joinNode int) bool {
	plan := &pe.plan
	join := plan.Ops[joinNode]
	partNode := join.Inputs[0]
	part := plan.Ops[partNode]
	partC := s.parCarrier(pe, partNode)

	// Candidate pool: up sites, holding the fragment under a placement.
	pool := s.par.scratch[:0]
	if s.cfg.Placement != nil {
		for _, c := range s.candidateSites(partC) {
			if s.up(c) {
				pool = append(pool, c)
			}
		}
	} else {
		for c := 0; c < s.cfg.NumSites; c++ {
			if s.up(c) {
				pool = append(pool, c)
			}
		}
	}
	s.par.scratch = pool
	if len(pool) == 0 {
		return false
	}

	// Cost model: every site repeats the replicated input's join share
	// (fixed), the partitioned scan and its join share divide (divisible),
	// and each extra site pays startup plus one more copy of the
	// replicated input on the ring (overhead).
	scanCPU := s.cfg.Classes[pe.q.Class].PageCPUTime
	joinCPU := join.PageCPU
	if joinCPU == 0 {
		joinCPU = scanCPU
	}
	perJoinPage := s.cfg.DiskTime + joinCPU
	repOut := 0
	repBytes := 0.0
	for _, in := range join.Inputs[1:] {
		repOut += plan.Ops[in].OutPages
		repBytes += plan.Ops[in].OutBytes
	}
	fixed := float64(repOut) * perJoinPage
	divisible := float64(part.Reads)*(s.cfg.DiskTime+scanCPU) + float64(part.OutPages)*perJoinPage
	overhead := s.par.cfg.SplitOverhead + s.ring.TransmitTime(repBytes)

	kmax := len(pool)
	if m := s.par.cfg.MaxDOP; m > 0 && m < kmax {
		kmax = m
	}
	if part.Reads < kmax {
		kmax = part.Reads
	}
	k := join.DOP
	if k < 1 {
		k = policy.ChooseDOP(fixed, divisible, overhead, kmax)
	}
	if k > kmax {
		k = kmax
	}

	// Pick k distinct sites by repeated policy selection over a
	// shrinking pool: the straggler-aware ranking chooses the least
	// loaded holders first.
	sites := make([]int, 0, k)
	for len(sites) < k {
		site := s.selectAmong(partC, pool)
		if site == policy.NoSite {
			break
		}
		sites = append(sites, site)
		for i, c := range pool {
			if c == site {
				pool = append(pool[:i], pool[i+1:]...)
				break
			}
		}
	}
	if len(sites) == 0 {
		return false
	}

	// The pool was already confined to live holders, so no placement
	// filter (and no degraded fallback) applies here.
	rep, err := workload.ExpandFragRep(nil, part.Frag, part.Reads, sites)
	if err != nil || rep.Degraded {
		return false
	}
	k = len(rep.Sites)
	shares := make([]*opInstance, k)
	joins := make([]*opInstance, k)
	cfg := s.par.cfg
	for i := 0; i < k; i++ {
		sc := s.parCarrier(pe, partNode)
		sc.ReadsTotal = rep.Shares[i]
		sc.EstReads = float64(rep.Shares[i])
		shareOut := pages(cfg.SelScan * float64(rep.Shares[i]))
		// Colocated with its join instance: no ring shipment.
		shares[i] = newInst(pe, partNode, rep.Sites[i], sc, 0)
		jc := s.parCarrier(pe, joinNode)
		jreads := shareOut + repOut
		jc.ReadsTotal = jreads
		jc.EstReads = float64(jreads)
		jout := pages(cfg.SelJoin * float64(jreads))
		joins[i] = newInst(pe, joinNode, rep.Sites[i], jc, float64(jout)*cfg.ShipBytesPerPage)
	}
	pe.insts[partNode] = shares
	pe.insts[joinNode] = joins
	pe.partNode, pe.splitNode = partNode, joinNode
	return true
}

// parDispatch commits one ready instance's primary carrier to its site:
// the carrier joins the load table and the audited population, its
// hedge is armed, and it starts — a scan away from home ships its
// descriptor first; joins and filters start in place.
func (s *System) parDispatch(inst *opInstance) {
	if inst.pe.aborted {
		return
	}
	inst.state = instDispatched
	s.enter(inst.primary, inst.site)
	if s.hedge != nil && s.par.cfg.Hedge && inst.site != inst.pe.q.Home {
		// The straggler hedge at operator granularity reuses the
		// query-level race and class-quantile delay.
		s.armHedge(&inst.hedgeRace)
	}
	s.start(inst.primary)
}

// parAttemptLost retires one carrier attempt a fault destroyed (lose
// already released its commitment). A lost clone leaves the primary
// racing on; a lost primary survives through a live clone; with neither
// left, the plan collapses.
func (s *System) parAttemptLost(inst *opInstance, attempt *workload.Query) {
	rec(attempt).phase = phaseDone
	s.par.preempted++
	s.par.inFlight--
	s.audRetire(s.sched.Now())
	if attempt == inst.clone {
		if !s.cloneLost(&inst.hedgeRace) {
			return
		}
	} else if inst.clone != nil {
		inst.primaryDead = true
		return
	}
	inst.state = instDone
	s.parPlanFailed(inst.pe)
}

// parOpDone fires when a carrier's last CPU burst ends (onExecDone has
// released its commitment): the attempt retires, any race settles
// (loser withdrawn without double counting), the operator's realized
// service folds into the logical query, and the output ships to its
// consumers — or home, for root instances.
func (s *System) parOpDone(inst *opInstance, finisher *workload.Query) {
	pe := inst.pe
	rec(finisher).phase = phaseDone
	s.par.completedOps++
	s.par.inFlight--
	s.audRetire(s.sched.Now())
	s.settleRace(&inst.hedgeRace, finisher)
	inst.state = instDone

	q := pe.q
	q.Service += finisher.Service
	q.NetService += finisher.NetService
	q.DiskService += finisher.DiskService
	s.par.opDiskBusy += finisher.DiskService
	s.par.opCPUBusy += finisher.ExecService() - finisher.DiskService
	s.par.opNetBusy += finisher.NetService

	from := finisher.Exec
	if len(inst.outTo) == 0 {
		// A root instance ships its share of the final result home (a
		// split root sends one share per instance).
		if from == q.Home {
			s.parArrive(pe, nil)
		} else {
			s.parShip(pe, from, q.Home, s.cfg.Classes[q.Class].MsgLength/float64(len(pe.insts[pe.plan.Root])), nil)
		}
		return
	}
	for _, tgt := range inst.outTo {
		if from == tgt.site {
			s.parArrive(pe, tgt) // colocated: no shipment
			continue
		}
		s.par.opNetBusy += s.parShip(pe, from, tgt.site, inst.outBytes, tgt)
		s.par.interBytes += inst.outBytes
	}
}

// parShip moves plan data over the ring, charged to the logical query:
// an operator's output to consumer tgt, or (tgt nil) a root share of
// the result home. A drop collapses the plan: the producer already
// retired, so the data has no retry path.
func (s *System) parShip(pe *planExec, from, to int, size float64, tgt *opInstance) float64 {
	t := s.charge(pe.q, size)
	m := network.Message{From: from, To: to, Size: size, OnDeliver: func() { s.parArrive(pe, tgt) }}
	if tgt != nil {
		m.Kind = eventKindOperator
	}
	if s.faults != nil {
		m.OnDrop = func() { s.parPlanFailed(pe) }
	}
	s.ring.Send(m)
	return t
}

// parArrive lands plan data unless the plan collapsed meanwhile: one
// input at consumer tgt, dispatching it once its inputs are complete, or
// (tgt nil) one root share home, completing the logical query once
// every share has arrived.
func (s *System) parArrive(pe *planExec, tgt *opInstance) {
	if pe.aborted {
		return
	}
	if tgt == nil {
		pe.rootRemaining--
		if pe.rootRemaining == 0 {
			s.complete(pe.q)
		}
		return
	}
	tgt.waiting--
	if tgt.waiting == 0 && tgt.state == instPending {
		s.parDispatch(tgt)
	}
}

// parPlanFailed collapses a plan a fault broke: every surviving attempt
// is withdrawn and the logical query is rejected.
func (s *System) parPlanFailed(pe *planExec) {
	if pe.aborted {
		return
	}
	s.parWithdraw(pe, false)
	s.rejectQuery(pe.q)
}

// parWithdraw aborts every in-flight attempt of a plan exactly once:
// each dispatched instance's race settles (timer retired, racing clone
// withdrawn) and its live primary is withdrawn, each withdrawal
// releasing its load-table commitment. byDeadline routes the
// withdrawals into the deadline-conservation ledger.
func (s *System) parWithdraw(pe *planExec, byDeadline bool) {
	pe.aborted = true
	if byDeadline {
		s.par.dlWithdrawing = true
	}
	for _, insts := range pe.insts {
		for _, inst := range insts {
			// A lost instance's unfired hedge is retired too.
			s.sched.Cancel(inst.timer)
			if inst.state != instDispatched {
				continue
			}
			if byDeadline && inst.clone != nil {
				s.par.dlOpsAborted++
			}
			s.settleRace(&inst.hedgeRace, inst.primary)
			if !inst.primaryDead {
				if byDeadline {
					s.par.dlOpsAborted++
				}
				s.withdraw(inst.primary)
			}
			inst.state = instDone
		}
	}
	s.par.dlWithdrawing = false
}
