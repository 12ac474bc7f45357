package system

import (
	"fmt"
	"math"

	"dqalloc/internal/check"
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

	shed        uint64
	deferred    uint64
	resubmitted uint64
	aborted     uint64 // parked queries withdrawn by a deadline abort
	waiting     int
}

// totals implements the closure read by check.NewAdmissionConservation.
func (ar *admissionRuntime) totals() check.AdmissionTotals {
	return check.AdmissionTotals{
		Deferred:    ar.deferred,
		Resubmitted: ar.resubmitted,
		Shed:        ar.shed,
		Aborted:     ar.aborted,
		Waiting:     ar.waiting,
	}
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
		ar.deferred++
		ar.waiting++
		ev := s.sched.After(ar.stream.Exp(ar.cfg.DeferDelay), func() { s.resubmit(q) })
		ev.SetKind(eventKindDefer)
		return
	}
	ar.shed++
	s.rejectQuery(q)
}

// resubmit re-enters a deferred query into the full allocation path: the
// policy runs again over the (possibly changed) load view, and admission
// applies again at whichever site it now picks.
func (s *System) resubmit(q *workload.Query) {
	if withdrawn(q) {
		return // withdrawn by a deadline abort while parked
	}
	s.adm.waiting--
	s.adm.resubmitted++
	s.allocate(q)
}
