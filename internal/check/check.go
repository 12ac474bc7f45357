// Package check provides pluggable runtime invariant auditors for the
// simulation. An auditor watches a run through narrow observer hooks and
// records the first violation of a queueing-theoretic or structural law it
// detects; a Set bundles auditors and fans hooks out to the ones that care.
//
// The paper's claims rest on the analytic MVA model (Section 3) and the
// discrete-event simulation (Section 5) agreeing where their assumptions
// overlap. These auditors are the simulation half of that cross-validation
// discipline: they assert conservation (nothing is created or lost, and
// every identity of the query-lifecycle Ledger balances), bounded
// utilizations, Little's law, event-clock monotonicity, and token-ring
// message conservation while the model runs. Auditing is wired behind
// system.Config.Audit so benchmark hot paths pay nothing when off.
package check

import "dqalloc/internal/sim"

// Auditor is a runtime invariant monitor. Concrete auditors additionally
// implement whichever observer interfaces below they need; a Set
// dispatches each hook only to the auditors implementing it.
type Auditor interface {
	// Name identifies the auditor in violation reports.
	Name() string
	// Err returns the first invariant violation detected, or nil while
	// every check has passed. Once non-nil it never changes: auditors
	// latch the first failure so the report points at the original
	// divergence, not a cascade.
	Err() error
}

// QueryObserver is notified of query lifecycle transitions.
type QueryObserver interface {
	// Submitted fires when a terminal submits a new query (after the
	// allocator has committed it to a site).
	Submitted(t float64)
	// Completed fires when a query's results reach its home terminal.
	Completed(t float64)
}

// EventObserver is notified of every fired scheduler event, between
// event actions (model state is quiescent at that instant).
type EventObserver interface {
	EventFired(e *sim.Event)
}

// RejectObserver is notified when a submitted query is rejected — no
// allowed execution site existed, or its retry budget ran out (fault
// extension). A rejected query leaves the in-flight population without
// a completion.
type RejectObserver interface {
	Rejected(t float64)
}

// MeasureObserver is notified when the warmup transient ends and
// measurement begins.
type MeasureObserver interface {
	MeasureStarted(t float64)
}

// Finalizer runs end-of-run checks over the collected measurements.
type Finalizer interface {
	Finalize(f Final)
}

// Final snapshots the end-of-run quantities the finalizing auditors need.
type Final struct {
	// Start and End bound the measured window.
	Start, End float64
	// Completed is the number of queries finishing inside the window.
	Completed uint64
	// MeanResponse is the mean response time of those completions.
	MeanResponse float64
	// CPUUtil and DiskUtil are per-site utilizations over the window.
	CPUUtil, DiskUtil []float64
	// SubnetUtil is the ring's busy fraction over the window.
	SubnetUtil float64
}

// SiteCounts is one site's instantaneous census, used by the conservation
// auditor to tie the site layer to the load table.
type SiteCounts struct {
	// Active is the site's count of admitted, unfinished queries.
	Active int
	// AtCPU and AtDisk are the occupancies of the two service centers.
	AtCPU, AtDisk int
}

// Set fans observer hooks out to a fixed group of auditors. The typed
// dispatch slices are precomputed at construction so the per-event path
// does no interface type assertions.
type Set struct {
	all     []Auditor
	query   []QueryObserver
	reject  []RejectObserver
	event   []EventObserver
	measure []MeasureObserver
	final   []Finalizer
}

// NewSet bundles the given auditors.
func NewSet(auditors ...Auditor) *Set {
	s := &Set{all: auditors}
	for _, a := range auditors {
		if o, ok := a.(QueryObserver); ok {
			s.query = append(s.query, o)
		}
		if o, ok := a.(RejectObserver); ok {
			s.reject = append(s.reject, o)
		}
		if o, ok := a.(EventObserver); ok {
			s.event = append(s.event, o)
		}
		if o, ok := a.(MeasureObserver); ok {
			s.measure = append(s.measure, o)
		}
		if o, ok := a.(Finalizer); ok {
			s.final = append(s.final, o)
		}
	}
	return s
}

// Auditors returns the bundled auditors in registration order.
func (s *Set) Auditors() []Auditor { return s.all }

// Submitted dispatches a query-submission hook.
func (s *Set) Submitted(t float64) {
	for _, o := range s.query {
		o.Submitted(t)
	}
}

// Completed dispatches a query-completion hook.
func (s *Set) Completed(t float64) {
	for _, o := range s.query {
		o.Completed(t)
	}
}

// Rejected dispatches a query-rejection hook.
func (s *Set) Rejected(t float64) {
	for _, o := range s.reject {
		o.Rejected(t)
	}
}

// EventFired dispatches a scheduler-event hook; wire it to
// sim.Scheduler.Observe.
func (s *Set) EventFired(e *sim.Event) {
	for _, o := range s.event {
		o.EventFired(e)
	}
}

// MeasureStarted dispatches the begin-measurement hook.
func (s *Set) MeasureStarted(t float64) {
	for _, o := range s.measure {
		o.MeasureStarted(t)
	}
}

// Finalize runs the end-of-run checks and returns the set's first
// violation (including any latched earlier in the run), or nil.
func (s *Set) Finalize(f Final) error {
	for _, o := range s.final {
		o.Finalize(f)
	}
	return s.Err()
}

// Err returns the first violation across the set's auditors, or nil.
func (s *Set) Err() error {
	for _, a := range s.all {
		if err := a.Err(); err != nil {
			return err
		}
	}
	return nil
}
