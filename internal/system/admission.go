package system

import (
	"fmt"
	"math"

	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file is the per-site overload admission control of the
// imperfect-information robustness extension. Under estimation error or
// stale load views the policies occasionally herd queries onto one site;
// a bounded run queue turns that failure mode from unbounded queueing
// into explicit backpressure: a site at its bound refuses the new
// arrival, which is either parked and resubmitted after a delay (its
// terminal stays blocked — backpressure) or shed outright (the terminal
// returns to thinking and the rejection is counted).
//
// Everything here is gated on s.adm != nil; a run with
// Config.Admission.Enabled == false schedules no extra events, draws no
// extra random numbers, and is bit-identical to a build without the
// subsystem. The fault layer's retry failover bypasses admission on
// purpose: a retried query is already in flight and bounded by the
// closed population, and shedding it would double-count the loss.

// eventKindDefer tags admission resubmission timers (see sim.Event.Kind).
const eventKindDefer byte = 0x45

// AdmissionConfig parameterizes per-site overload admission control. The
// zero value (Enabled == false) disables it.
type AdmissionConfig struct {
	// Enabled turns admission control on.
	Enabled bool
	// MaxQueue is the per-site bound on committed queries (queued,
	// in service, or in flight toward the site): an arrival finding the
	// chosen site at the bound is bounced.
	MaxQueue int
	// Defer parks bounced queries for a random delay and resubmits them
	// through the full allocation path, instead of shedding immediately.
	Defer bool
	// DeferDelay is the mean of the exponential resubmission delay.
	DeferDelay float64
	// MaxDefers is the per-query deferral budget; a query bounced after
	// exhausting it is shed.
	MaxDefers int
}

// DefaultAdmission returns a moderate setting: bound each site at 15
// committed queries and defer up to 3 times with mean delay 5 before
// shedding.
func DefaultAdmission() AdmissionConfig {
	return AdmissionConfig{Enabled: true, MaxQueue: 15, Defer: true, DeferDelay: 5, MaxDefers: 3}
}

// validate reports the first admission-config error, if any.
func (a AdmissionConfig) validate() error {
	if !a.Enabled {
		return nil
	}
	switch {
	case a.MaxQueue < 1:
		return fmt.Errorf("system: admission MaxQueue %d < 1", a.MaxQueue)
	case a.Defer && (math.IsNaN(a.DeferDelay) || math.IsInf(a.DeferDelay, 0) || a.DeferDelay <= 0):
		return fmt.Errorf("system: admission DeferDelay %v must be positive and finite", a.DeferDelay)
	case a.MaxDefers < 0:
		return fmt.Errorf("system: negative admission MaxDefers %d", a.MaxDefers)
	}
	return nil
}

// admissionRuntime is the per-run state of the admission subsystem.
type admissionRuntime struct {
	cfg AdmissionConfig
	// stream draws resubmission delays; a dedicated child of the root
	// stream so deferrals never perturb the other model streams.
	stream *rng.Stream
}

// overloadedAt reports whether the chosen site is at its admission bound.
// The count is the ground-truth load table (the same commitment the
// conservation auditor tracks), not the policy's possibly stale view:
// admission is enforced by the receiving site, which always knows its
// own queue.
func (s *System) overloadedAt(site int) bool {
	return s.table.NumQueries(site) >= s.adm.cfg.MaxQueue
}

// admissionBounce handles a query refused by its chosen site: park it
// for a delayed resubmission while its budget lasts, then shed it.
func (s *System) admissionBounce(q *workload.Query) {
	ar := s.adm
	if ar.cfg.Defer && q.Defers < ar.cfg.MaxDefers {
		q.Defers++
		setPhase(q, phaseDeferred)
		s.led.Deferred++
		s.led.Waiting++
		// A tracked query's resubmission is bound to its record and owed
		// to it; an untracked run has no record to bind to.
		var resubmit func()
		if a := rec(q); a != nil {
			resubmit = a.fns.resubmit
			s.hold(a)
		} else {
			resubmit = func() { s.resubmit(q) }
		}
		ev := s.sched.After(ar.stream.Exp(ar.cfg.DeferDelay), resubmit)
		ev.SetKind(eventKindDefer)
		return
	}
	s.led.Shed++
	s.rejectQuery(q)
}

// resubmit re-enters a deferred query into the full allocation path: the
// policy runs again over the (possibly changed) load view, and admission
// applies again at whichever site it now picks.
func (s *System) resubmit(q *workload.Query) {
	a := live(q)
	if !withdrawn(q) { // else withdrawn by a deadline abort while parked
		s.led.Waiting--
		s.led.Resubmitted++
		s.allocate(q)
	}
	s.settle(a)
}
