package system

import (
	"math"

	"dqalloc/internal/check"
	"dqalloc/internal/fault"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file wires the fault-injection subsystem (internal/fault) into
// the system model: site crashes drain the execution engine, lossy
// transmissions lose shipped queries and result pages, and a per-query
// watchdog detects losses and re-allocates among the remaining live
// sites. Terminals are assumed to survive their site's crash (only the
// DB execution engine fails), so the closed population is preserved:
// every submitted query eventually completes or is explicitly rejected.
//
// Everything here is gated on s.faults != nil; a run with
// Config.Fault.Enabled == false schedules no extra events, draws no
// extra random numbers, and is bit-identical to a build without the
// subsystem.

// Scheduler event kinds for the fault layer (see sim.Event.Kind).
const (
	// eventKindTimeout tags watchdog expirations.
	eventKindTimeout byte = 0x43
	// eventKindRetry tags the end of a lost query's retry backoff.
	eventKindRetry byte = 0x44
)

// faultRuntime is the per-run state of the fault subsystem.
type faultRuntime struct {
	cfg fault.Config
	inj *fault.Injector

	// netStream and bcStream drive the ring and load-broadcast fault
	// models; they are dedicated children of the root stream so the
	// no-fault streams are never perturbed.
	netStream *rng.Stream
	bcStream  *rng.Stream

	lost            uint64
	retried         uint64
	abandoned       uint64
	preempted       uint64 // losses resolved by a hedge win or deadline abort
	pendingRecovery int
}

// totals implements the closure read by check.NewFaultConservation.
func (fr *faultRuntime) totals() check.FaultTotals {
	return check.FaultTotals{
		Lost:            fr.lost,
		Retried:         fr.retried,
		Abandoned:       fr.abandoned,
		Preempted:       fr.preempted,
		PendingRecovery: fr.pendingRecovery,
	}
}

// setupFaults builds the fault runtime during New. root is the run's
// root stream; children 4–6 are reserved for the fault layer.
func (s *System) setupFaults(root *rng.Stream) error {
	fr := &faultRuntime{cfg: s.cfg.Fault}
	inj, err := fault.NewInjector(s.sched, s.cfg.NumSites, s.cfg.Fault, root.Child(4), s.onSiteCrash, s.onSiteRepair)
	if err != nil {
		return err
	}
	fr.inj = inj
	// Policies consult the injector's live mask; it is updated in place
	// at crash and repair instants.
	s.env.Up = inj.Up()
	if s.cfg.Fault.NetworkFaults() {
		fr.netStream = root.Child(5)
		s.ring.SetFault(func() (bool, float64) { return fr.messageFate(fr.netStream) })
		if s.bcast != nil {
			fr.bcStream = root.Child(6)
			s.bcast.SetPerturb(func(int) (bool, float64) { return fr.messageFate(fr.bcStream) })
		}
	}
	s.faults = fr
	return nil
}

// messageFate draws one message's fate from the given stream: drop
// and/or extra latency. Both draws always happen (when their knob is
// on), so the stream's consumption depends only on the message count —
// the common-random-numbers discipline.
func (fr *faultRuntime) messageFate(stream *rng.Stream) (drop bool, delay float64) {
	if fr.cfg.DropProb > 0 {
		drop = stream.Bernoulli(fr.cfg.DropProb)
	}
	if fr.cfg.DelayMean > 0 {
		delay = stream.Exp(fr.cfg.DelayMean)
	}
	return drop, delay
}

// up reports site liveness; always true when faults are off.
func (s *System) up(site int) bool {
	return s.faults == nil || s.faults.inj.SiteUp(site)
}

// onSiteCrash is the injector's crash callback: the site's execution
// engine drops everything mid-service. Each drained query's load-table
// commitment is released and its loss recorded; the watchdog will
// re-allocate it.
func (s *System) onSiteCrash(site int) {
	for _, q := range s.sites[site].Crash() {
		if rec(q).phase == phaseDone {
			// A sibling carrier's loss already collapsed its plan and
			// withdrew this (also-drained) carrier; nothing remains to
			// release.
			continue
		}
		s.lose(q)
	}
	if s.repl != nil {
		// The crash wipes the site's fragment copies (except last copies,
		// which survive on stable storage) and aborts shipments it was
		// donating or receiving; newly uncovered deficits get rebuild
		// timers.
		s.replScheduleDeficits(s.repl.mgr.OnCrash(site, s.sched.Now()))
	}
	if s.avail != nil {
		s.availRecountAll()
	}
}

// onSiteRepair is the injector's repair callback: fragments whose
// surviving copies live at the repaired site become reachable again.
func (s *System) onSiteRepair(int) {
	if s.avail != nil {
		s.availRecountAll()
	}
}

// faultArm starts a newly dispatched query's watchdog.
func (s *System) faultArm(q *workload.Query) {
	if s.faults == nil {
		return
	}
	rec(q).watched = true
	s.armWatchdog(q)
}

// armWatchdog (re)schedules the detection timer.
func (s *System) armWatchdog(q *workload.Query) {
	a := rec(q)
	a.watchdog = s.sched.After(s.faults.cfg.DetectTimeout, func() { s.faultTimeout(q) })
	a.watchdog.SetKind(eventKindTimeout)
}

// faultRetire takes an attempt's watchdog off when it completes or is
// withdrawn; a pending recovery it ends counts as preempted.
func (s *System) faultRetire(a *attempt) {
	if !a.watched {
		return
	}
	if a.lost {
		s.faults.pendingRecovery--
		s.faults.preempted++
	}
	s.sched.Cancel(a.watchdog)
	a.watched = false
}

// faultLost records that q's execution was wiped out (site crash or
// message drop). The query stays in the in-flight population; its
// armed watchdog will notice the loss and retry or reject it. A racing
// clone carries no watchdog, so its loss settles at once; if the primary
// had already exhausted its retry budget, the logical query dies with
// the clone and is rejected.
func (s *System) faultLost(q *workload.Query) {
	a := rec(q)
	if r := a.race; r != nil && r.clone == q {
		a.phase = phaseDone
		dead := s.cloneLost(r)
		s.audRetire(s.sched.Now())
		if dead {
			s.rejectQuery(r.primary)
		}
		return
	}
	if !a.watched || a.lost {
		return // already accounted; nothing further can be lost
	}
	a.lost = true
	a.phase = phaseLost
	s.faults.lost++
	s.faults.pendingRecovery++
	if s.aud != nil {
		s.aud.Lost(s.sched.Now())
	}
}

// faultTimeout fires when a query's watchdog expires. A query that is
// merely slow re-arms the watchdog (execution is at-most-once: the
// original dispatch is never duplicated while it may still be alive); a
// lost query consumes a retry attempt.
func (s *System) faultTimeout(q *workload.Query) {
	if !rec(q).lost {
		s.armWatchdog(q)
		return
	}
	s.faultRetryOrAbandon(q)
}

// faultRetryOrAbandon consumes one retry attempt for a lost query:
// either its backoff timer is scheduled or its budget is exhausted and
// the query is rejected — unless a hedge clone is still racing, which
// then carries the query alone and the loss counts as preempted.
func (s *System) faultRetryOrAbandon(q *workload.Query) {
	a := rec(q)
	a.retries++
	if a.retries > s.faults.cfg.MaxRetries {
		a.watched = false
		s.faults.pendingRecovery--
		if r := a.race; r != nil && r.clone != nil {
			r.primaryDead = true
			a.phase = phaseDone
			s.faults.preempted++
			return
		}
		s.faults.abandoned++
		s.rejectQuery(q)
		return
	}
	backoff := s.faults.cfg.RetryBackoff * math.Pow(2, float64(a.retries-1))
	a.watchdog = s.sched.After(backoff, func() { s.faultRedispatch(q) })
	a.watchdog.SetKind(eventKindRetry)
}

// faultRedispatch re-allocates a lost query after its backoff: the
// policy runs again over the currently live sites and the query
// restarts from its first read (lost work is genuinely lost). When no
// site can take it, another attempt is consumed.
func (s *System) faultRedispatch(q *workload.Query) {
	a := rec(q)
	exec := s.selectSite(q)
	if exec == policy.NoSite {
		s.faultRetryOrAbandon(q)
		return
	}
	s.faults.pendingRecovery--
	s.faults.retried++
	a.lost = false
	q.ReadsDone = 0
	if s.aud != nil {
		s.aud.Retried(s.sched.Now())
	}
	s.commit(q, exec)
	s.start(q)
	s.hedgeArm(q)
	s.armWatchdog(q)
}

// rejectQuery gives up on a query: it never completes, the rejection is
// counted, its deadline watchdog and any unfired hedge race are retired,
// and — in closed mode, the terminal surviving regardless — its terminal
// returns to the think state, preserving the closed population.
func (s *System) rejectQuery(q *workload.Query) {
	if a := rec(q); a != nil {
		if s.deadlineRetire(a) {
			s.dl.cancelled++
		}
		if a.race != nil {
			// Every rejection path reaches here with no live clone (a
			// racing clone preempts abandonment), so only an idle race
			// timer can remain.
			s.settleRace(a.race, q)
			a.race = nil
		}
		a.phase = phaseDone
	}
	s.rejected++
	if s.aud != nil {
		s.aud.Rejected(s.sched.Now())
	}
	if s.arr == nil {
		s.startThink(q.Home)
	}
}
