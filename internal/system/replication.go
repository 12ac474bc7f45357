package system

import (
	"dqalloc/internal/check"
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file wires the self-healing replica manager (internal/replica)
// into the system model. The manager itself is pure bookkeeping; this
// layer owns everything with side effects — the scheduler events, the
// ring shipments, the allocation fallback for degraded reads, and the
// per-(site, fragment) commitment ledger that keeps load-driven demotion
// from dropping a copy a site is still executing against.
//
// Everything here is gated on s.repl != nil; a run with
// Config.Replication.Enabled == false schedules no extra events, draws
// no extra random numbers, and is bit-identical to a build without the
// subsystem. The fragment-availability tracker (s.avail) is independent:
// it is built for any Placement under site failures — manager or not —
// and adds no events or draws either.

// Scheduler event kinds for the replication layer (see sim.Event.Kind).
const (
	// eventKindReplScan tags the load-driven add/drop scan ticks.
	eventKindReplScan byte = 0x71
	// eventKindReplRebuild tags rebuild-start timers (the staging delay
	// between detecting a deficit and launching its transfer, and the
	// retry backoff after a failed plan or an aborted copy).
	eventKindReplRebuild byte = 0x72
	// eventKindFragment tags ring transmissions carrying a fragment copy
	// (rebuild/promotion shipments and degraded-read fetches), so traces
	// distinguish data movement from query traffic.
	eventKindFragment byte = 0x22
)

// replRuntime is the per-run state of the replication subsystem.
type replRuntime struct {
	cfg replica.ManagerConfig
	mgr *replica.Manager

	// active counts the queries currently committed to each (site,
	// fragment) pair; load-driven demotion may only drop a copy with a
	// zero count. Maintained at exactly the load-table Assign/Complete
	// pairing points, so it balances whenever the table does.
	active  [][]int32
	canDrop func(site, object int) bool

	// penaltyFn prices the degraded-read fallback: every site pays the
	// ring fetch time of one fragment. Constant per-site in this ring
	// model, but the hook is per-site for generality.
	penalty   float64
	penaltyFn func(site int) float64

	degraded  uint64 // degraded dispatches (fetch-at-non-holder)
	noReplica uint64 // queries rejected because no up site could serve the fragment
	badExec   uint64 // executions at a non-holder without degraded marking (auditor)

	// cachedState memoizes the auditor snapshot between mutations; the
	// auditor runs at every event, the O(objects × sites) scan only when
	// something moved.
	cachedState check.ReplicationState
	cachedValid bool
}

// setupReplication builds the replica manager during New. stream is the
// manager's dedicated root child (11).
func (s *System) setupReplication(stream *rng.Stream) error {
	mgr, err := replica.NewManager(s.cfg.Placement, s.cfg.Replication, stream)
	if err != nil {
		return err
	}
	r := &replRuntime{cfg: s.cfg.Replication, mgr: mgr}
	r.active = make([][]int32, s.cfg.NumSites)
	for i := range r.active {
		r.active[i] = make([]int32, mgr.NumObjects())
	}
	r.canDrop = func(site, object int) bool { return r.active[site][object] == 0 }
	r.penalty = s.ring.TransmitTime(r.cfg.FragmentSize)
	r.penaltyFn = func(int) float64 { return r.penalty }
	s.repl = r
	if r.cfg.LoadDriven() {
		ev := s.sched.After(r.cfg.ScanPeriod, s.replScanTick)
		ev.SetKind(eventKindReplScan)
	}
	return nil
}

// holdsLive reports whether site holds a copy of object under the live
// placement (static when the manager is off).
func (s *System) holdsLive(site, object int) bool {
	if s.repl != nil {
		return s.repl.mgr.Holds(site, object)
	}
	return s.cfg.Placement.Holds(site, object)
}

// replUp returns the live site mask for the manager (nil = all up).
func (s *System) replUp() []bool {
	if s.faults != nil {
		return s.faults.inj.Up()
	}
	return nil
}

// replAssign and replRelease maintain the per-(site, fragment)
// commitment ledger; they piggyback on exactly the load-table
// Assign/Complete pairing points.
func (s *System) replAssign(q *workload.Query, site int) {
	if s.repl != nil {
		s.repl.active[site][q.Object]++
	}
}

func (s *System) replRelease(q *workload.Query, site int) {
	if s.repl != nil {
		s.repl.active[site][q.Object]--
	}
}

// selectSite runs the allocation policy for q over the currently allowed
// sites — the live copy holders under a placement — falling back to a
// degraded-read site when the replica manager is on and no up site holds
// the fragment. NoSite means nothing can take the query.
func (s *System) selectSite(q *workload.Query) int {
	if s.cfg.Placement != nil {
		s.env.Candidates = s.candidateSites(q)
	}
	q.Degraded = false
	exec := s.pol.Select(q, q.Home, s.env)
	if exec == policy.NoSite && s.repl != nil {
		exec = s.replDegradedSite(q)
	}
	return exec
}

// replDegradedSite handles the no-up-holder case: in fetch mode the
// policy re-runs over all up sites with every candidate's cost
// surcharged by the fragment fetch time, and the winner executes
// degraded; in reject mode (or when every site is down) the query is
// unservable.
func (s *System) replDegradedSite(q *workload.Query) int {
	if s.repl.cfg.Degraded == replica.DegradedReject {
		return policy.NoSite
	}
	saved := s.env.Candidates
	s.env.Candidates = nil
	s.env.Penalty = s.repl.penaltyFn
	exec := s.pol.Select(q, q.Home, s.env)
	s.env.Penalty = nil
	s.env.Candidates = saved
	if exec != policy.NoSite {
		q.Degraded = true
	}
	return exec
}

// replFetch ships q's fragment from the nearest holder to the degraded
// execution site, then executes. The holder may be down — its stable
// storage survives the execution engine's crash (the same assumption
// that keeps terminals alive), so archives stay readable.
func (s *System) replFetch(q *workload.Query, site int) {
	size := s.repl.cfg.FragmentSize
	s.charge(q, size)
	m := network.Message{
		From: s.replNearestHolder(q.Object, site),
		To:   site,
		Size: size,
		Kind: eventKindFragment,
		OnDeliver: func() {
			if withdrawn(q) {
				return
			}
			if !s.up(site) {
				s.lose(q)
				return
			}
			s.sites[site].Execute(q)
		},
	}
	if s.faults != nil {
		m.OnDrop = func() { s.dropped(q) }
	}
	s.repl.degraded++
	s.ring.Send(m)
}

// replNearestHolder picks the holder of object with the shortest ring
// distance to site (deterministic: lowest index on ties).
func (s *System) replNearestHolder(object, site int) int {
	n := s.cfg.NumSites
	best, bestDist := -1, n+1
	for _, h := range s.repl.mgr.Candidates(object) {
		d := (site - h + n) % n
		if d < bestDist {
			best, bestDist = h, d
		}
	}
	return best
}

// replScheduleDeficits schedules a rebuild-start timer for each object
// the manager just reported deficient and uncovered.
func (s *System) replScheduleDeficits(objects []int) {
	for _, o := range objects {
		s.replScheduleOne(o)
	}
}

func (s *System) replScheduleOne(o int) {
	ev := s.sched.After(s.repl.cfg.RebuildDelay, func() { s.replTryRebuild(o) })
	ev.SetKind(eventKindReplRebuild)
}

// replTryRebuild fires when a deficit's staging delay (or retry backoff)
// expires: plan a donor and target among the up sites and launch the
// shipment, or — when none exists yet — try again after another delay.
func (s *System) replTryRebuild(o int) {
	r := s.repl
	if !r.mgr.Pending(o) {
		return // resolved (or launched) since this timer was set
	}
	donor, target, ok := r.mgr.PlanRebuild(o, s.replUp())
	if !ok {
		s.replScheduleOne(o)
		return
	}
	id := r.mgr.Begin(o, donor, target, false, s.sched.Now())
	s.replShip(o, id, donor, target)
}

// replShip puts one fragment shipment on the ring. Delivery installs the
// copy; a lossy-ring drop aborts the transfer and retries the deficit.
func (s *System) replShip(o int, id uint64, donor, target int) {
	s.ring.Send(network.Message{
		From:      donor,
		To:        target,
		Size:      s.repl.cfg.FragmentSize,
		Kind:      eventKindFragment,
		OnDeliver: func() { s.replXferDone(o, id) },
		OnDrop:    func() { s.replXferDropped(o, id) },
	})
}

func (s *System) replXferDone(o int, id uint64) {
	st, needMore := s.repl.mgr.Commit(o, id, s.sched.Now(), s.replUp())
	if st == replica.CommitInstalled && s.avail != nil {
		s.availRecount(o)
	}
	if needMore {
		s.replScheduleOne(o)
	}
}

func (s *System) replXferDropped(o int, id uint64) {
	if _, needMore := s.repl.mgr.Abort(o, id); needMore {
		s.replScheduleOne(o)
	}
}

// replScanTick is the load-driven control loop: decay the EWMA rates,
// demote cold fragments (subject to the commitment ledger and the
// last-up-copy guard), and launch promotion shipments for hot ones.
func (s *System) replScanTick() {
	r := s.repl
	now := s.sched.Now()
	up := s.replUp()
	promote, drops := r.mgr.Scan(now, up, r.canDrop)
	if s.avail != nil {
		for _, d := range drops {
			s.availRecount(d.Object)
		}
	}
	for _, o := range promote {
		donor, target, ok := r.mgr.PlanAdd(o, up)
		if !ok {
			continue // no up target; the next scan retries
		}
		id := r.mgr.Begin(o, donor, target, true, now)
		s.replShip(o, id, donor, target)
	}
	ev := s.sched.After(r.cfg.ScanPeriod, s.replScanTick)
	ev.SetKind(eventKindReplScan)
}

// replState feeds the replication-conservation auditor, memoized on the
// manager's mutation counter so per-event checks stay O(1).
func (s *System) replState() check.ReplicationState {
	r := s.repl
	mut := r.mgr.Mutations() + r.badExec
	if r.cachedValid && mut == r.cachedState.Mutations {
		return r.cachedState
	}
	a := r.mgr.Audit()
	r.cachedState = check.ReplicationState{
		Mutations:    mut,
		Deficient:    a.Deficient,
		Uncovered:    a.Uncovered,
		ZeroCopy:     a.ZeroCopy,
		OverMax:      a.OverMax,
		Inconsistent: a.Inconsistent,
		InFlight:     a.InFlight,
		Launched:     a.Launched,
		Rebuilt:      a.Rebuilt,
		Added:        a.Added,
		Aborted:      a.Aborted,
		BadExec:      r.badExec,
	}
	r.cachedValid = true
	return r.cachedState
}

// fragAvail tracks each fragment's reachability — the time it spent with
// no up holder — for the fragment-weighted availability results. Built
// for any Placement under site failures; it schedules no events and
// draws nothing, so it never perturbs digests.
type fragAvail struct {
	nUp       []int     // current up-holder count per fragment
	downSince []float64 // instant the fragment lost its last up holder
	downTime  []float64 // unreachable time inside the measured window
	winStart  float64
}

// setupFragAvail builds the tracker (every site starts up).
func (s *System) setupFragAvail() {
	n := s.cfg.Placement.NumObjects()
	a := &fragAvail{
		nUp:       make([]int, n),
		downSince: make([]float64, n),
		downTime:  make([]float64, n),
	}
	for o := 0; o < n; o++ {
		a.nUp[o] = len(s.cfg.Placement.Candidates(o))
	}
	s.avail = a
}

// availReset starts the measured window.
func (s *System) availReset(now float64) {
	a := s.avail
	a.winStart = now
	for o := range a.downTime {
		a.downTime[o] = 0
	}
}

// availSet updates one fragment's up-holder count, accumulating
// unreachable time at the down→up transition.
func (a *fragAvail) availSet(o, n int, now float64) {
	prev := a.nUp[o]
	a.nUp[o] = n
	switch {
	case prev > 0 && n == 0:
		a.downSince[o] = now
	case prev == 0 && n > 0:
		from := a.downSince[o]
		if from < a.winStart {
			from = a.winStart
		}
		a.downTime[o] += now - from
	}
}

// availRecount refreshes one fragment's up-holder count from the live
// placement and the site mask.
func (s *System) availRecount(o int) {
	n := 0
	for site := 0; site < s.cfg.NumSites; site++ {
		if s.up(site) && s.holdsLive(site, o) {
			n++
		}
	}
	s.avail.availSet(o, n, s.sched.Now())
}

// availRecountAll refreshes every fragment — used at the rare crash and
// repair instants, when any fragment's holder set may have changed.
func (s *System) availRecountAll() {
	for o := range s.avail.nUp {
		s.availRecount(o)
	}
}

// availFinal closes the window at end and returns the mean and minimum
// per-fragment availability.
func (s *System) availFinal(end float64) (mean, min float64) {
	a := s.avail
	window := end - a.winStart
	if window <= 0 {
		return 1, 1
	}
	min = 1
	for o := range a.nUp {
		dt := a.downTime[o]
		if a.nUp[o] == 0 {
			from := a.downSince[o]
			if from < a.winStart {
				from = a.winStart
			}
			dt += end - from
		}
		av := 1 - dt/window
		mean += av
		if av < min {
			min = av
		}
	}
	mean /= float64(len(a.nUp))
	return mean, min
}
