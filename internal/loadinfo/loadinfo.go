// Package loadinfo maintains the load-distribution information that the
// allocation heuristics consume: for every site, the number of queries
// currently allocated there, split into I/O-bound and CPU-bound counts
// (paper Sections 4.1–4.3).
//
// The paper assumes "each site knows the current loads of all other sites"
// (Section 2); PerfectView realizes that assumption. The paper defers the
// design of an information-exchange policy to future work (Section 4.4);
// Broadcaster implements the natural candidate — periodic status broadcast
// — so the cost of stale information can be studied.
package loadinfo

import (
	"fmt"

	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// View is the allocator's read interface over site load state. Sites are
// identified by index.
type View interface {
	// NumQueries returns the number of queries allocated to the site.
	NumQueries(site int) int
	// NumIOQueries returns the number of I/O-bound queries at the site.
	NumIOQueries(site int) int
	// NumCPUQueries returns the number of CPU-bound queries at the site.
	NumCPUQueries(site int) int
}

// CountReader is the optional bulk read of a View: one call in place of
// a call per site and count. Policies use it when the view offers it and
// read per site otherwise, so a view that wraps another — to count its
// reads, say — sees every read unless it chooses to forward this one.
type CountReader interface {
	// ReadCounts sets io[i], cpu[i] and total[i] to what NumIOQueries,
	// NumCPUQueries and NumQueries return for sites[i]. io, cpu and
	// total hold at least len(sites) entries.
	ReadCounts(sites, io, cpu, total []int)
}

// WorkView is the optional extension of View exposing the outstanding
// *estimated work* committed to each site, split by resource. Policies
// that want two-dimensional work balancing (rather than query counts)
// type-assert a View to WorkView.
type WorkView interface {
	// CPUWork returns the site's outstanding estimated CPU demand.
	CPUWork(site int) float64
	// IOWork returns the site's outstanding estimated disk demand.
	IOWork(site int) float64
}

// Table is the ground-truth load table, updated by the system as queries
// are allocated and complete. It doubles as the PerfectView.
type Table struct {
	io      []int
	cpu     []int
	cpuWork []float64
	ioWork  []float64
}

var (
	_ View     = (*Table)(nil)
	_ WorkView = (*Table)(nil)
)

// NewTable returns a table covering numSites sites, all idle.
func NewTable(numSites int) *Table {
	if numSites <= 0 {
		panic("loadinfo: need at least one site")
	}
	return &Table{
		io:      make([]int, numSites),
		cpu:     make([]int, numSites),
		cpuWork: make([]float64, numSites),
		ioWork:  make([]float64, numSites),
	}
}

// NumSites returns the number of sites tracked.
func (t *Table) NumSites() int { return len(t.io) }

// Assign records that a query of the given bound was allocated to site.
// A query counts from its allocation instant (including transit) until
// Complete is called, per the commitment semantics in DESIGN.md.
func (t *Table) Assign(site int, b workload.Bound) {
	switch b {
	case workload.IOBound:
		t.io[site]++
	case workload.CPUBound:
		t.cpu[site]++
	default:
		panic(fmt.Sprintf("loadinfo: invalid bound %d", b))
	}
}

// Complete records that a query of the given bound finished at site.
func (t *Table) Complete(site int, b workload.Bound) {
	switch b {
	case workload.IOBound:
		t.io[site]--
	case workload.CPUBound:
		t.cpu[site]--
	default:
		panic(fmt.Sprintf("loadinfo: invalid bound %d", b))
	}
	if t.io[site] < 0 || t.cpu[site] < 0 {
		panic("loadinfo: completion without matching assignment")
	}
}

// AssignWork records the estimated demands of a query allocated to site.
// Call it alongside Assign; CompleteWork must receive the same values.
func (t *Table) AssignWork(site int, cpu, io float64) {
	t.cpuWork[site] += cpu
	t.ioWork[site] += io
}

// CompleteWork removes a completed (or migrated-away) query's estimated
// demands from site.
func (t *Table) CompleteWork(site int, cpu, io float64) {
	t.cpuWork[site] -= cpu
	t.ioWork[site] -= io
	if t.cpuWork[site] < -1e-6 || t.ioWork[site] < -1e-6 {
		panic("loadinfo: work completion without matching assignment")
	}
}

// CPUWork returns the site's outstanding estimated CPU demand.
func (t *Table) CPUWork(site int) float64 { return t.cpuWork[site] }

// IOWork returns the site's outstanding estimated disk demand.
func (t *Table) IOWork(site int) float64 { return t.ioWork[site] }

// NumQueries returns the live query count at site.
func (t *Table) NumQueries(site int) int { return t.io[site] + t.cpu[site] }

// NumIOQueries returns the live I/O-bound count at site.
func (t *Table) NumIOQueries(site int) int { return t.io[site] }

// NumCPUQueries returns the live CPU-bound count at site.
func (t *Table) NumCPUQueries(site int) int { return t.cpu[site] }

// ReadCounts reads the listed sites' live counts.
func (t *Table) ReadCounts(sites, io, cpu, total []int) {
	readCounts(t.io, t.cpu, sites, io, cpu, total)
}

// readCounts gathers the listed sites' I/O-bound and CPU-bound counts
// from srcIO and srcCPU into io and cpu, and their sums into total.
func readCounts(srcIO, srcCPU, sites, io, cpu, total []int) {
	io, cpu, total = io[:len(sites)], cpu[:len(sites)], total[:len(sites)]
	for i, s := range sites {
		io[i], cpu[i] = srcIO[s], srcCPU[s]
		total[i] = io[i] + cpu[i]
	}
}

// Total returns the number of queries allocated across all sites.
func (t *Table) Total() int {
	total := 0
	for i := range t.io {
		total += t.io[i] + t.cpu[i]
	}
	return total
}

// Broadcaster periodically snapshots a Table, exposing the most recent
// snapshot as the View. This models sites exchanging load status messages
// every Period time units: between broadcasts the allocators work with
// stale counts. Period zero or negative is rejected — use the Table
// directly for perfect information.
type Broadcaster struct {
	table  *Table
	period float64
	sched  *sim.Scheduler

	io      []int
	cpu     []int
	cpuWork []float64
	ioWork  []float64
	// updated is the simulation time each site's entry was last applied,
	// so consumers (and tests) can observe staleness directly instead of
	// inferring it from value changes.
	updated []float64
	next    sim.Handle
	// tickFn is the recurring snapshot action, bound once at
	// construction so each round schedules the next without allocating
	// a method-value closure.
	tickFn  sim.Action
	stopped bool

	// perturb, when non-nil, decides the fate of each site's entry in a
	// broadcast round (fault-injection extension): a dropped entry keeps
	// its previous — now doubly stale — value, and a delayed entry is
	// applied only after the extra latency elapses.
	perturb Perturb
}

// Perturb decides the fate of one site's status message in a broadcast
// round: drop loses the update entirely, a positive delay defers its
// application. Implementations are consulted once per site per round,
// in site order, keeping runs deterministic.
type Perturb func(site int) (drop bool, delay float64)

var (
	_ View     = (*Broadcaster)(nil)
	_ WorkView = (*Broadcaster)(nil)
)

// NewBroadcaster starts periodic snapshots of table every period time
// units, beginning with an immediate snapshot. Call Stop to cancel the
// recurring event (e.g. at the end of the measurement horizon).
func NewBroadcaster(sched *sim.Scheduler, table *Table, period float64) (*Broadcaster, error) {
	if period <= 0 {
		return nil, fmt.Errorf("loadinfo: broadcast period %v must be positive", period)
	}
	b := &Broadcaster{
		table:   table,
		period:  period,
		sched:   sched,
		io:      make([]int, table.NumSites()),
		cpu:     make([]int, table.NumSites()),
		cpuWork: make([]float64, table.NumSites()),
		ioWork:  make([]float64, table.NumSites()),
		updated: make([]float64, table.NumSites()),
	}
	b.tickFn = b.tick
	b.snapshot()
	b.next = sched.After(period, b.tickFn)
	b.next.SetKind(eventKindBroadcast)
	return b, nil
}

// Event kinds tagged onto this package's scheduler events for the trace
// digest (see sim.Event.Kind).
const (
	// eventKindBroadcast tags snapshot ticks.
	eventKindBroadcast byte = 0x31
	// eventKindDelayedInfo tags the deferred application of one site's
	// delayed status message (lossy-broadcast extension).
	eventKindDelayedInfo byte = 0x32
)

// Period returns the broadcast interval.
func (b *Broadcaster) Period() float64 { return b.period }

// SetPerturb installs a per-entry fault model for subsequent broadcast
// rounds (the initial snapshot taken at construction is always clean).
// Pass nil to restore loss-free instantaneous snapshots.
func (b *Broadcaster) SetPerturb(fn Perturb) { b.perturb = fn }

// Stop cancels future snapshots. The last snapshot remains readable.
// Stop is idempotent: calling it twice, or after the scheduler has
// drained the pending tick, is a no-op — it never cancels an event it
// does not own.
func (b *Broadcaster) Stop() {
	b.stopped = true
	b.sched.Cancel(b.next)
	b.next = sim.Handle{}
}

// NumQueries returns the site's query count as of the last broadcast.
func (b *Broadcaster) NumQueries(site int) int { return b.io[site] + b.cpu[site] }

// NumIOQueries returns the site's I/O-bound count as of the last broadcast.
func (b *Broadcaster) NumIOQueries(site int) int { return b.io[site] }

// NumCPUQueries returns the site's CPU-bound count as of the last broadcast.
func (b *Broadcaster) NumCPUQueries(site int) int { return b.cpu[site] }

// ReadCounts reads the listed sites' counts as of the last broadcast.
func (b *Broadcaster) ReadCounts(sites, io, cpu, total []int) {
	readCounts(b.io, b.cpu, sites, io, cpu, total)
}

// CPUWork returns the site's estimated CPU work as of the last broadcast.
func (b *Broadcaster) CPUWork(site int) float64 { return b.cpuWork[site] }

// IOWork returns the site's estimated disk work as of the last broadcast.
func (b *Broadcaster) IOWork(site int) float64 { return b.ioWork[site] }

// LastUpdate returns the simulation time site's entry was last applied
// (the initial construction snapshot counts). An entry whose age
// exceeds the broadcast period has been dropped or delayed at least
// once; age beyond K periods means K consecutive losses.
func (b *Broadcaster) LastUpdate(site int) float64 { return b.updated[site] }

// Age returns how stale site's entry is at the current simulation time.
func (b *Broadcaster) Age(site int) float64 { return b.sched.Now() - b.updated[site] }

func (b *Broadcaster) snapshot() {
	copy(b.io, b.table.io)
	copy(b.cpu, b.table.cpu)
	copy(b.cpuWork, b.table.cpuWork)
	copy(b.ioWork, b.table.ioWork)
	now := b.sched.Now()
	for i := range b.updated {
		b.updated[i] = now
	}
}

// broadcastOnce refreshes the snapshot, consulting the perturbation
// model entry by entry when one is installed.
func (b *Broadcaster) broadcastOnce() {
	if b.perturb == nil {
		b.snapshot()
		return
	}
	for s := 0; s < b.table.NumSites(); s++ {
		drop, delay := b.perturb(s)
		if drop {
			continue // the previous value stays visible
		}
		if delay <= 0 {
			b.apply(s, b.table.io[s], b.table.cpu[s], b.table.cpuWork[s], b.table.ioWork[s])
			continue
		}
		io, cpu := b.table.io[s], b.table.cpu[s]
		cw, iw := b.table.cpuWork[s], b.table.ioWork[s]
		ev := b.sched.After(delay, func() { b.apply(s, io, cpu, cw, iw) })
		ev.SetKind(eventKindDelayedInfo)
	}
}

// apply installs one site's (possibly delayed) status message.
func (b *Broadcaster) apply(site, io, cpu int, cpuWork, ioWork float64) {
	b.io[site] = io
	b.cpu[site] = cpu
	b.cpuWork[site] = cpuWork
	b.ioWork[site] = ioWork
	b.updated[site] = b.sched.Now()
}

func (b *Broadcaster) tick() {
	if b.stopped {
		return
	}
	b.broadcastOnce()
	b.next = b.sched.After(b.period, b.tickFn)
	b.next.SetKind(eventKindBroadcast)
}
