package system

import (
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// This file is the query-attempt lifecycle shared by every carrier the
// system executes — a monolithic query, a hedge clone, an operator
// carrier, or an operator clone (see DESIGN.md, "Query-attempt
// lifecycle"). Each carrier is the query embedded in its attempt record,
// reached back through workload.Query.Attempt, and every carrier is
// committed, shipped, landed, lost and withdrawn by the same functions
// below. Records are pooled (pool.go): a logical query or hedge clone
// takes one attempt record, an operator carrier lives inside its
// operator instance, and each record's timer callbacks are bound once
// when it is first allocated. Ring messages carry the query itself to
// handlers the System binds once, so no path here allocates a closure.
// No record exists when deadlines, hedging, faults and operator trees are
// all off: nothing then reads a phase, so those runs pay only a nil
// interface check, and their untracked queries are recycled through a
// free list of their own (pool.go).

// Attempt lifecycle phases. The zero value phaseNone means "not yet
// dispatched".
const (
	phaseNone int8 = iota
	// phaseDeferred: parked by admission control, awaiting resubmission.
	phaseDeferred
	// phaseCommitted: dispatched and counted in the load table — in
	// transit toward, queued at, or in service at its execution site.
	phaseCommitted
	// phaseResult: execution finished, result page set in transit home.
	phaseResult
	// phaseLost: execution wiped out by a fault, awaiting its watchdog.
	phaseLost
	// phaseDone: completed, rejected, or withdrawn; nothing in flight.
	phaseDone
	// phaseFree: the record is back on its free list; a delivery finding
	// this phase was never counted (see live).
	phaseFree
)

// attempt is the lifecycle record of one carrier, and the carrier itself.
type attempt struct {
	// q is the carrier; q.Attempt points back at this record.
	q workload.Query

	phase int8
	// defunct marks an attempt withdrawn while a delivery for it (query
	// descriptor, result pages, fragment fetch, or admission
	// resubmission) was pending; that delivery consumes the bit and
	// drops the attempt.
	defunct bool
	// drained marks an attempt a crash took off its site whose loss the
	// crash loop has not settled yet: withdrawn meanwhile, it is at no
	// site but owes no delivery either.
	drained bool
	// spawned marks a clone or operator carrier: an attempt that joined
	// the audited population itself, so its withdrawal retires it there.
	spawned bool

	// deadline is the logical query's deadline watchdog; it is armed
	// exactly while the handle is scheduled.
	deadline sim.Handle

	// watched marks an armed fault watchdog: watchdog is its detection
	// timer (or, while lost, the pending retry), retries counts the
	// re-allocation attempts consumed, and lost marks an execution wiped
	// out by a fault awaiting recovery.
	watched  bool
	lost     bool
	retries  int
	watchdog sim.Handle

	// race is the hedge race this attempt runs in, as primary or clone.
	race *hedgeRace
	// own is the race this record hosts as a primary; race points at it
	// once the attempt is hedged.
	own hedgeRace
	// inst is the operator instance an operator carrier executes; plan
	// the execution state of a multi-operator logical query.
	inst *opInstance
	plan *planExec

	// pending counts the deliveries still owed to this record: ring
	// messages carrying it and an admission resubmission. ended marks
	// the record retired; it is freed when both say so. A plan carrier
	// (owner non-nil) lives inside its instance, so its deliveries are
	// owed to the plan instead.
	pending int32
	ended   bool
	owner   *planExec

	fns attemptFns
}

// attemptFns are an attempt record's timer callbacks, bound to it once
// when the record is first allocated.
type attemptFns struct {
	deadline, timeout, retry, resubmit func()
}

// hedgeRace is one primary/clone hedge race, of a monolithic query or of an
// operator instance.
type hedgeRace struct {
	primary *workload.Query
	// clone is the racing re-issue, nil before the timer fires and after
	// the clone retires; at most one is launched per race.
	clone *workload.Query
	// timer is the pending hedge launch.
	timer sim.Handle
	// primaryDead marks a primary destroyed by a fault while its clone
	// raced on: the clone alone carries the work.
	primaryDead bool
	// fire launches the clone; bound once to the record hosting the race.
	fire func()
}

// rec returns q's lifecycle record, nil when no lifecycle subsystem is on.
func rec(q *workload.Query) *attempt {
	a, _ := q.Attempt.(*attempt)
	return a
}

// setPhase records q's phase when q has a record.
func setPhase(q *workload.Query, p int8) {
	if a := rec(q); a != nil {
		a.phase = p
	}
}

// scans reports whether the attempt reads its fragment — a monolithic
// query or a scan carrier. Only these ship a descriptor to a remote site
// and need a copy where they land; joins and filters start in place and
// receive their inputs as intermediate-result shipments.
func (a *attempt) scans() bool {
	return a == nil || a.inst == nil || a.inst.isScan()
}

// withdrawn consumes the defunct bit, reporting whether q was withdrawn
// while the delivery now arriving was pending.
func withdrawn(q *workload.Query) bool {
	a := rec(q)
	if a == nil || !a.defunct {
		return false
	}
	a.defunct = false
	return true
}

// commit charges attempt q to site exec in the load table and the
// replica commitment ledger.
func (s *System) commit(q *workload.Query, exec int) {
	q.Exec = exec
	setPhase(q, phaseCommitted)
	s.table.Assign(exec, s.bound(q))
	s.table.AssignWork(exec, q.EstCPUDemand(), q.EstDiskDemand(s.cfg.DiskTime))
	s.replAssign(q, exec)
	if a := rec(q); a != nil && a.inst != nil {
		s.led.Commits++
		s.led.TableLive++
	}
}

// release is the exact inverse of commit. Every caller releases once:
// onExecDone at execution end, lose for a committed attempt a fault
// destroyed, withdraw for a committed attempt withdrawn, and migration
// before re-committing elsewhere.
func (s *System) release(q *workload.Query) {
	s.table.Complete(q.Exec, s.bound(q))
	s.table.CompleteWork(q.Exec, q.EstCPUDemand(), q.EstDiskDemand(s.cfg.DiskTime))
	s.replRelease(q, q.Exec)
	if a := rec(q); a != nil && a.inst != nil {
		s.led.Releases++
		s.led.TableLive--
		if s.par.dlWithdrawing {
			s.led.DeadlineOpReleases++
		}
	}
}

// charge adds one ring transmission of size to q's service.
func (s *System) charge(q *workload.Query, size float64) float64 {
	t := s.ring.TransmitTime(size)
	q.Service += t
	q.NetService += t
	return t
}

// enter adds a spawned attempt to the audited population and commits it
// to exec.
func (s *System) enter(q *workload.Query, exec int) {
	if s.aud != nil {
		s.aud.Submitted(s.sched.Now())
	}
	if rec(q).inst != nil {
		s.led.Ops++
		s.led.OpsInFlight++
	}
	s.commit(q, exec)
}

// start sets committed attempt q going: a fragment reader away from home
// ships its descriptor to its site, anything else lands in place.
func (s *System) start(q *workload.Query) {
	if q.Exec != q.Home && rec(q).scans() {
		s.ship(q, q.Home, s.cfg.Classes[q.Class].MsgLength)
		return
	}
	s.land(q)
}

// ship is the one path that moves an attempt over the ring — a query
// descriptor, a clone, a scan carrier, or a migrating query's state — to
// its committed site q.Exec. The transmission is charged to q; delivery
// lands q there, and a drop loses it.
func (s *System) ship(q *workload.Query, from int, size float64) {
	s.charge(q, size)
	s.send(q, network.Message{From: from, To: q.Exec, Size: size, Handle: s.shipFn})
}

// send puts a message carrying attempt q on the ring, counting the
// delivery owed to q's record.
func (s *System) send(q *workload.Query, m network.Message) {
	if a := rec(q); a != nil {
		s.hold(a)
	}
	m.Arg = q
	s.ring.Send(m)
}

// bindHandlers binds the ring handlers of attempt and plan messages
// once per run.
func (s *System) bindHandlers() {
	s.shipFn = s.onShip
	s.resultFn = s.onResult
	s.fetchFn = s.onFetch
	s.planDataFn = s.onPlanData
}

// delivered returns the attempt a message carried and its record, which
// must still be held (see live).
func delivered(arg any) (*workload.Query, *attempt) {
	q := arg.(*workload.Query)
	return q, live(q)
}

// settle settles the delivery owed to a's record, if q had one.
func (s *System) settle(a *attempt) {
	if a != nil {
		s.unhold(a)
	}
}

// onShip is the delivery of a shipped attempt: it lands at its site, or
// is lost when the message dropped.
func (s *System) onShip(arg any, dropped bool) {
	q, a := delivered(arg)
	if dropped {
		s.dropped(q)
	} else {
		s.land(q)
	}
	s.settle(a)
}

// land is the one landing check at q's committed site q.Exec: an
// attempt withdrawn in transit is dropped, a dead destination loses it,
// and under the replica manager a site without the fragment either
// fetches it (a degraded allocation) or — when a crash wiped the copy
// while q travelled — loses it. Any other missing-fragment execution is
// an allocator bug the auditor flags.
func (s *System) land(q *workload.Query) {
	if withdrawn(q) {
		return
	}
	site := q.Exec
	if !s.up(site) {
		s.lose(q)
		return
	}
	if r := s.repl; r != nil && rec(q).scans() && !r.mgr.Holds(site, q.Object) {
		if q.Degraded {
			s.replFetch(q)
			return
		}
		if s.faults != nil {
			s.lose(q)
			return
		}
		r.badExec++
	}
	s.sites[site].Execute(q)
}

// dropped is the drop path of every message carrying an attempt.
func (s *System) dropped(q *workload.Query) {
	if !withdrawn(q) {
		s.lose(q)
	}
}

// lose settles an attempt a fault destroyed: a crash wiping it, a dead
// or copy-less destination, or a dropped message. A committed attempt's
// commitment is released here; an operator carrier's loss is then
// settled by the plan engine, anything else by the fault watchdog.
func (s *System) lose(q *workload.Query) {
	a := rec(q)
	if a.phase == phaseCommitted {
		s.release(q)
	}
	if a.inst != nil {
		s.parAttemptLost(a.inst, q)
		return
	}
	s.faultLost(q)
}

// withdraw is the one withdrawal of an in-flight attempt — a deadline
// abort, a race loser, or a collapsed plan's carrier. The phase tells it
// what is outstanding:
//
//   - phaseCommitted: the attempt holds a table commitment, released
//     here exactly once, and is either at its site (aborted in place) or
//     in transit (marked defunct so the delivery drops it).
//   - phaseResult: execution already released the commitment; only the
//     homeward result message remains, marked defunct.
//   - phaseDeferred: parked by admission; the resubmission is marked
//     defunct and the ledger records the abort.
//   - phaseLost: nothing is in flight; retiring the watchdog records
//     that the pending recovery was preempted.
func (s *System) withdraw(q *workload.Query) {
	a := rec(q)
	switch a.phase {
	case phaseCommitted:
		if !a.drained && !s.sites[q.Exec].Abort(q) {
			a.defunct = true
		}
		s.release(q)
	case phaseResult:
		a.defunct = true
	case phaseDeferred:
		a.defunct = true
		s.led.Waiting--
		s.led.Aborted++
	}
	s.faultRetire(a)
	a.phase = phaseDone
	if a.inst != nil {
		s.led.OpsAborted++
		s.led.OpsInFlight--
	}
	if a.spawned {
		s.audRetire(s.sched.Now())
	}
}

// armHedge starts r's launch timer at the primary's class hedge delay.
func (s *System) armHedge(r *hedgeRace) {
	r.timer = s.sched.After(s.hedgeDelay(r.primary.Class), r.fire)
	r.timer.SetKind(eventKindHedge)
}

// hedgeFire launches r's clone if the primary is still committed when
// the trigger fires: a fresh copy of the primary races it at the
// policy's best other up site. The clone joins the audited population;
// it carries no deadline, no fault watchdog, and no nested hedge.
func (s *System) hedgeFire(r *hedgeRace) {
	p := r.primary
	if rec(p).phase != phaseCommitted {
		return
	}
	exec := s.hedgeSite(p)
	if exec == policy.NoSite {
		return
	}
	ca := s.newAttempt()
	ca.race, ca.inst, ca.spawned = r, rec(p).inst, true
	c := &ca.q
	*c = workload.Query{
		ID:         p.ID,
		Class:      p.Class,
		Home:       p.Home,
		Object:     p.Object,
		ReadsTotal: p.ReadsTotal,
		EstReads:   p.EstReads,
		EstPageCPU: p.EstPageCPU,
		PageCPU:    p.PageCPU,
		SubmitTime: p.SubmitTime,
		Attempt:    ca,
	}
	r.clone = c
	s.led.Hedges++
	s.led.Racing++
	s.enter(c, exec)
	s.start(c)
}

// hedgeSite runs the allocation policy over the up sites other than
// primary p's, confined to fragment holders when p reads a fragment;
// NoSite when none exists.
func (s *System) hedgeSite(p *workload.Query) int {
	cands := s.everySite()
	if rec(p).scans() {
		cands = s.candidateSites(p)
	}
	s.hedgeScratch = s.hedgeScratch[:0]
	for _, c := range cands {
		if c != p.Exec && s.up(c) {
			s.hedgeScratch = append(s.hedgeScratch, c)
		}
	}
	if len(s.hedgeScratch) == 0 {
		return policy.NoSite
	}
	return s.selectAmong(p, s.hedgeScratch)
}

// settleRace resolves r when winner finished (or, for a deadline abort
// or plan collapse, is being withdrawn with the primary): the launch
// timer is retired and a live loser withdrawn — the primary when the
// clone won (a hedge win), the clone otherwise (a cancelled hedge). A
// withdrawn clone's record retires here; a winning clone's retires with
// the completion that finished it.
func (s *System) settleRace(r *hedgeRace, winner *workload.Query) {
	s.sched.Cancel(r.timer)
	if c := r.clone; c != nil {
		r.clone = nil
		s.led.Racing--
		if winner == c {
			s.led.HedgeWins++
			if !r.primaryDead {
				s.withdraw(r.primary)
			}
			return
		}
		s.led.HedgeCancelled++
		s.withdraw(c)
		s.endAttempt(rec(c))
	}
}

// cloneLost retires r's clone destroyed by a fault from the race,
// reporting whether the primary is dead too, leaving nothing to carry
// the work. The caller retires the clone's record when done with it.
func (s *System) cloneLost(r *hedgeRace) bool {
	r.clone = nil
	s.led.Racing--
	s.led.HedgeCancelled++
	return r.primaryDead
}
