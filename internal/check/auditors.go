package check

import (
	"fmt"
	"math"

	"dqalloc/internal/fault"
	"dqalloc/internal/sim"
	"dqalloc/internal/stats"
)

// utilEpsilon absorbs floating-point residue in utilization bounds.
const utilEpsilon = 1e-9

// violation latches the first failure an auditor detects.
type violation struct {
	err error
}

// failf records the violation unless one is already latched.
func (v *violation) failf(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf(format, args...)
	}
}

// Err returns the latched violation, or nil.
func (v *violation) Err() error { return v.err }

// Conservation audits query conservation. At every submission, completion
// and rejection, submitted = completed + rejected + in-flight, the
// in-flight count stays within the closed population, the independently
// maintained load table tracks a subset of the in-flight queries, and
// every site's active count decomposes exactly into its CPU and disk
// occupancies. At every event boundary and at Finalize the lifecycle
// Ledger's identities hold; the fail-slow pairings are checked once a
// fail-slow or brownout transition has run, and at Finalize.
type Conservation struct {
	violation
	capacity   int        // closed population: sites × mpl
	led        *Ledger    // lifecycle ledger, nil when not tracked
	slow       SlowLedger // fail-slow ledger, nil without fail-slow injection
	tableTotal func() int // live load-table total (allocated, not exec-done)
	sites      func(buf []SiteCounts) []SiteCounts

	submitted uint64
	completed uint64
	rejected  uint64
	slowMoved bool // a fail-slow or brownout transition ran since the last check
	buf       []SiteCounts
}

// NewConservation builds the auditor. capacity is the closed population
// bound (NumSites × MPL), or 0 for an open system (unbounded in-flight
// population — the open-arrival extension); led (optional) is the
// lifecycle ledger and slow (optional) the fail-slow ledger; tableTotal
// reads the load table; sites (optional) reports the per-site census
// into the provided buffer.
func NewConservation(capacity int, led *Ledger, slow SlowLedger, tableTotal func() int, sites func(buf []SiteCounts) []SiteCounts) *Conservation {
	if capacity < 0 {
		panic("check: negative conservation capacity")
	}
	if tableTotal == nil {
		panic("check: nil tableTotal")
	}
	return &Conservation{capacity: capacity, led: led, slow: slow, tableTotal: tableTotal, sites: sites}
}

// Name implements Auditor.
func (c *Conservation) Name() string { return "conservation" }

// Submitted implements QueryObserver.
func (c *Conservation) Submitted(t float64) {
	c.submitted++
	c.check(t)
}

// Completed implements QueryObserver.
func (c *Conservation) Completed(t float64) {
	c.completed++
	c.check(t)
}

// Rejected implements RejectObserver: a rejected query leaves the
// population without completing.
func (c *Conservation) Rejected(t float64) {
	c.rejected++
	c.check(t)
}

// InFlight returns the current submitted-minus-retired count.
func (c *Conservation) InFlight() uint64 { return c.submitted - c.completed - c.rejected }

// EventFired implements EventObserver: the ledgers must balance whenever
// the model is quiescent.
func (c *Conservation) EventFired(e *sim.Event) {
	if c.err != nil {
		return
	}
	if c.slowMoved {
		c.checkSlow(e.Time())
	}
	c.slowMoved = c.slow != nil && e.Kind >= fault.EventKindSlowOn && e.Kind <= fault.EventKindBrownoutOff
	c.checkLedger(e.Time())
}

// Finalize implements Finalizer, re-checking both ledgers at measurement
// end.
func (c *Conservation) Finalize(f Final) {
	if c.err != nil {
		return
	}
	if c.slow != nil {
		c.checkSlow(f.End)
	}
	c.checkLedger(f.End)
}

func (c *Conservation) checkLedger(t float64) {
	if c.led == nil {
		return
	}
	if err := c.led.balance(c.rejected); err != nil {
		c.failf("check: conservation: t=%v: %v", t, err)
	}
}

func (c *Conservation) checkSlow(t float64) {
	if err := slowBalance(c.slow.Totals()); err != nil {
		c.failf("check: conservation: t=%v: %v", t, err)
	}
}

func (c *Conservation) check(t float64) {
	if c.err != nil {
		return
	}
	if c.completed+c.rejected > c.submitted {
		c.failf("check: conservation: t=%v: %d completions + %d rejections exceed %d submissions",
			t, c.completed, c.rejected, c.submitted)
		return
	}
	inflight := c.submitted - c.completed - c.rejected
	if c.capacity > 0 && inflight > uint64(c.capacity) {
		c.failf("check: conservation: t=%v: %d queries in flight exceed closed population %d",
			t, inflight, c.capacity)
		return
	}
	tt := c.tableTotal()
	if tt < 0 || uint64(tt) > inflight {
		c.failf("check: conservation: t=%v: load table holds %d queries, %d in flight",
			t, tt, inflight)
		return
	}
	if c.sites == nil {
		return
	}
	c.buf = c.sites(c.buf[:0])
	active := 0
	for i, sc := range c.buf {
		if sc.AtCPU+sc.AtDisk != sc.Active {
			c.failf("check: conservation: t=%v: site %d active %d != cpu %d + disk %d",
				t, i, sc.Active, sc.AtCPU, sc.AtDisk)
			return
		}
		active += sc.Active
	}
	if active > tt {
		c.failf("check: conservation: t=%v: %d queries active at sites, load table holds %d",
			t, active, tt)
	}
}

// Utilization audits that every measured busy fraction lies in [0, 1]:
// each site's CPU and disk utilization and the ring's, at measurement end.
type Utilization struct {
	violation
}

// NewUtilization builds the auditor.
func NewUtilization() *Utilization { return &Utilization{} }

// Name implements Auditor.
func (u *Utilization) Name() string { return "utilization" }

// Finalize implements Finalizer.
func (u *Utilization) Finalize(f Final) {
	checkOne := func(label string, site int, v float64) {
		if v < -utilEpsilon || v > 1+utilEpsilon || math.IsNaN(v) {
			u.failf("check: utilization: site %d %s utilization %v outside [0,1]", site, label, v)
		}
	}
	for i, v := range f.CPUUtil {
		checkOne("cpu", i, v)
	}
	for i, v := range f.DiskUtil {
		checkOne("disk", i, v)
	}
	if f.SubnetUtil < -utilEpsilon || f.SubnetUtil > 1+utilEpsilon || math.IsNaN(f.SubnetUtil) {
		u.failf("check: utilization: subnet utilization %v outside [0,1]", f.SubnetUtil)
	}
}

// LittlesLaw audits N = λ·W over the measured window: the time-average
// number of in-flight queries must match throughput times mean response
// within a tolerance that absorbs window-boundary effects. The check is
// skipped when fewer than MinSamples queries completed — short windows
// make the boundary terms dominate.
type LittlesLaw struct {
	violation
	// RelTol is the allowed relative discrepancy (default 0.10).
	RelTol float64
	// AbsTol is an absolute floor below which discrepancies are ignored,
	// guarding near-empty systems (default 0.1 queries).
	AbsTol float64
	// MinSamples is the minimum completion count for the check to apply
	// (default 100).
	MinSamples uint64
	// MinWindows is the minimum measured-window length in units of the
	// mean response time (default 100): in shorter windows the queries
	// straddling the boundaries bias N̄ and λ·W apart regardless of model
	// correctness.
	MinWindows float64

	inflight int
	tw       stats.TimeWeighted
	started  bool
	rejected uint64
}

// NewLittlesLaw builds the auditor with default tolerances.
func NewLittlesLaw() *LittlesLaw {
	return &LittlesLaw{RelTol: 0.10, AbsTol: 0.1, MinSamples: 100, MinWindows: 100}
}

// Name implements Auditor.
func (l *LittlesLaw) Name() string { return "littles-law" }

// Submitted implements QueryObserver.
func (l *LittlesLaw) Submitted(t float64) {
	l.inflight++
	l.tw.Set(t, float64(l.inflight))
}

// Completed implements QueryObserver.
func (l *LittlesLaw) Completed(t float64) {
	l.inflight--
	l.tw.Set(t, float64(l.inflight))
}

// Rejected implements RejectObserver. Rejections remove queries from
// the population without a response-time sample, decoupling N̄ from
// λ·W; the integral stays honest but the end-of-run identity check is
// skipped (Conservation's ledger owns the accounting under faults).
func (l *LittlesLaw) Rejected(t float64) {
	l.inflight--
	l.tw.Set(t, float64(l.inflight))
	l.rejected++
}

// MeasureStarted implements MeasureObserver: the integral restarts so the
// warmup transient is excluded, exactly like the model's own statistics.
func (l *LittlesLaw) MeasureStarted(t float64) {
	l.tw.Reset(t)
	l.started = true
}

// Finalize implements Finalizer.
func (l *LittlesLaw) Finalize(f Final) {
	if l.err != nil || !l.started || f.End <= f.Start || f.Completed < l.MinSamples {
		return
	}
	if l.rejected > 0 {
		// Rejected queries spent time in flight but contribute nothing
		// to λ·W, so the identity does not hold; see Rejected.
		return
	}
	if f.End-f.Start < l.MinWindows*f.MeanResponse {
		return
	}
	nbar := l.tw.MeanAt(f.End)
	lambda := float64(f.Completed) / (f.End - f.Start)
	lw := lambda * f.MeanResponse
	diff := math.Abs(nbar - lw)
	if diff > l.RelTol*math.Max(nbar, lw)+l.AbsTol {
		l.failf("check: littles-law: N̄ = %v but λ·W = %v·%v = %v (diff %v beyond tolerance)",
			nbar, lambda, f.MeanResponse, lw, diff)
	}
}

// Monotonicity audits the simulation clock: fired events must have
// non-decreasing times, and same-instant events must fire in scheduling
// (sequence) order — the kernel's FIFO tie-break determinism guarantee.
type Monotonicity struct {
	violation
	seen    bool
	lastT   float64
	lastSeq uint64
	events  uint64
}

// NewMonotonicity builds the auditor.
func NewMonotonicity() *Monotonicity { return &Monotonicity{} }

// Name implements Auditor.
func (m *Monotonicity) Name() string { return "monotonicity" }

// Events returns the number of fired events observed.
func (m *Monotonicity) Events() uint64 { return m.events }

// EventFired implements EventObserver.
func (m *Monotonicity) EventFired(e *sim.Event) {
	m.observe(e.Time(), e.Seq())
}

// observe is the testable core of EventFired.
func (m *Monotonicity) observe(t float64, seq uint64) {
	m.events++
	if m.seen && m.err == nil {
		switch {
		case t < m.lastT:
			m.failf("check: monotonicity: event at t=%v fired after t=%v", t, m.lastT)
		case t == m.lastT && seq <= m.lastSeq:
			m.failf("check: monotonicity: same-instant events out of FIFO order at t=%v (seq %d after %d)",
				t, seq, m.lastSeq)
		}
	}
	m.seen = true
	m.lastT, m.lastSeq = t, seq
}

// RingCounters is the slice of the token ring the conservation auditor
// reads; *network.Ring implements it.
type RingCounters interface {
	// Sent is the lifetime count of messages handed to the ring.
	Sent() uint64
	// TotalDelivered is the lifetime count of completed transmissions.
	TotalDelivered() uint64
	// TotalDropped is the lifetime count of messages discarded by the
	// fault model (zero on a reliable ring).
	TotalDropped() uint64
	// Pending is the count of messages waiting or in flight.
	Pending() int
}

// RingConservation audits token-ring message conservation between every
// pair of events: sent = delivered + dropped + pending, with pending
// non-negative.
type RingConservation struct {
	violation
	ring RingCounters
}

// NewRingConservation builds the auditor over the given ring.
func NewRingConservation(ring RingCounters) *RingConservation {
	if ring == nil {
		panic("check: nil ring")
	}
	return &RingConservation{ring: ring}
}

// Name implements Auditor.
func (r *RingConservation) Name() string { return "ring-conservation" }

// EventFired implements EventObserver.
func (r *RingConservation) EventFired(e *sim.Event) {
	if r.err != nil {
		return
	}
	r.check(e.Time())
}

// Finalize implements Finalizer, re-checking at measurement end.
func (r *RingConservation) Finalize(f Final) {
	if r.err == nil {
		r.check(f.End)
	}
}

func (r *RingConservation) check(t float64) {
	pending := r.ring.Pending()
	if pending < 0 {
		r.failf("check: ring-conservation: t=%v: negative pending count %d", t, pending)
		return
	}
	sent, delivered, dropped := r.ring.Sent(), r.ring.TotalDelivered(), r.ring.TotalDropped()
	if sent != delivered+dropped+uint64(pending) {
		r.failf("check: ring-conservation: t=%v: sent %d != delivered %d + dropped %d + pending %d",
			t, sent, delivered, dropped, pending)
	}
}

// ReplicationState is the replica manager's invariant snapshot, read by
// the replication-conservation auditor through a closure so the auditor
// stays decoupled from the system and replica packages. Mutations must
// change whenever any other field can have changed; the auditor skips
// its (O(objects × sites)) re-scan while it is stable. The closure
// returns the producer's cached snapshot by pointer, so an unchanged
// state is never copied.
type ReplicationState struct {
	// Mutations is the manager's placement/transfer change counter plus
	// any system-side violation counters.
	Mutations uint64
	// Deficient counts fragments below MinCopies; Uncovered those among
	// them with neither a scheduled rebuild nor a shipment in flight.
	Deficient, Uncovered int
	// ZeroCopy and OverMax count fragments outside [1, MaxCopies].
	ZeroCopy, OverMax int
	// Inconsistent counts fragments whose copy counter disagrees with
	// their holder set (a leak or duplication across a crash/rebuild
	// race).
	Inconsistent int
	// InFlight is the number of live fragment shipments; the transfer
	// ledger identity is Launched == Rebuilt + Added + Aborted + InFlight.
	InFlight                          int
	Launched, Rebuilt, Added, Aborted uint64
	// BadExec counts queries that started executing at a site holding no
	// copy of their fragment without being marked degraded (which would
	// have fetched it first).
	BadExec uint64
}

// ReplicationConservation audits the self-healing replica manager at
// every event boundary: every fragment keeps between 1 and MaxCopies
// copies, every deficit is covered by a scheduled rebuild or an
// in-flight shipment, the transfer ledger balances (no shipment leaked
// or double-counted across crash/rebuild races), holder sets stay
// consistent with copy counts, and no query executes against a missing
// fragment undeclared.
type ReplicationConservation struct {
	violation
	state func() *ReplicationState

	lastMutations uint64
	checkedOnce   bool
}

// NewReplicationConservation builds the auditor; state reads the replica
// manager's snapshot.
func NewReplicationConservation(state func() *ReplicationState) *ReplicationConservation {
	if state == nil {
		panic("check: nil replication state")
	}
	return &ReplicationConservation{state: state}
}

// Name implements Auditor.
func (r *ReplicationConservation) Name() string { return "replication-conservation" }

// EventFired implements EventObserver.
func (r *ReplicationConservation) EventFired(e *sim.Event) {
	if r.err == nil {
		r.check(e.Time())
	}
}

// Finalize implements Finalizer, re-checking at measurement end.
func (r *ReplicationConservation) Finalize(fin Final) {
	if r.err == nil {
		r.checkedOnce = false // force one last full scan
		r.check(fin.End)
	}
}

func (r *ReplicationConservation) check(t float64) {
	st := r.state()
	if r.checkedOnce && st.Mutations == r.lastMutations {
		return
	}
	r.lastMutations = st.Mutations
	r.checkedOnce = true
	switch {
	case st.ZeroCopy > 0:
		r.failf("check: replication-conservation: t=%v: %d fragments lost their last copy", t, st.ZeroCopy)
	case st.OverMax > 0:
		r.failf("check: replication-conservation: t=%v: %d fragments exceed MaxCopies", t, st.OverMax)
	case st.Inconsistent > 0:
		r.failf("check: replication-conservation: t=%v: %d fragments with holder/count mismatch", t, st.Inconsistent)
	case st.Uncovered > 0:
		r.failf("check: replication-conservation: t=%v: %d of %d deficient fragments have no rebuild scheduled or in flight",
			t, st.Uncovered, st.Deficient)
	case st.InFlight < 0:
		r.failf("check: replication-conservation: t=%v: negative in-flight count %d", t, st.InFlight)
	case st.Launched != st.Rebuilt+st.Added+st.Aborted+uint64(st.InFlight):
		r.failf("check: replication-conservation: t=%v: %d launched != %d rebuilt + %d added + %d aborted + %d in flight",
			t, st.Launched, st.Rebuilt, st.Added, st.Aborted, st.InFlight)
	case st.BadExec > 0:
		r.failf("check: replication-conservation: t=%v: %d queries executed at sites lacking their fragment",
			t, st.BadExec)
	}
}
