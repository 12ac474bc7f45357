package serve

import (
	"sync"
	"time"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/workload"
)

// LiveTable is the serving-side load table: per-site counts and work
// backlogs as last reported by the sites, aged by wall-clock staleness.
// It plays the role loadinfo.Broadcaster plays in the simulator, with
// two differences a live system forces:
//
//   - Entries expire. A site that has not reported within the TTL reads
//     as AssumeBusy queries (and AssumeBusy units of work), so policies
//     prefer any fresh site over a stale one; when every candidate is
//     stale the Core falls back to round-robin instead of trusting a
//     view that may be arbitrarily wrong.
//   - Decisions are committed optimistically. Each decision increments a
//     per-site delta on top of the reported counts (the simulator's
//     commitment semantics: a query counts from its allocation instant);
//     the site's next report, which observes the routed queries itself,
//     overwrites the entry and clears the delta. This keeps a burst of
//     decisions inside one report period from herding onto the site that
//     happened to look idle at the last report.
//
// Ingest is called from report handlers and the view methods from the
// decide that holds the decision token; a mutex guards every method. A decision's
// query counts come from one ReadCounts call, so they are consistent
// across the sites it costs; work reads (WORK only) are per-site, and a report may
// land between them, which is exactly the consistency a distributed
// load table offers.
type LiveTable struct {
	mu         sync.Mutex
	ttl        time.Duration
	assumeBusy int

	io, cpu          []int
	cpuWork, ioWork  []float64
	dio, dcpu        []int
	dcpuWork, dioWrk []float64
	last             []time.Time

	// now is the epoch of the decision in progress, set by
	// BeginDecision; freshness is evaluated against it so one decision
	// sees one consistent notion of "now".
	now time.Time
}

var (
	_ loadinfo.View        = (*LiveTable)(nil)
	_ loadinfo.WorkView    = (*LiveTable)(nil)
	_ loadinfo.CountReader = (*LiveTable)(nil)
)

// NewLiveTable returns a table for numSites sites, all entries unset
// (and therefore stale until the first report).
func NewLiveTable(numSites int, ttl time.Duration, assumeBusy int) *LiveTable {
	return &LiveTable{
		ttl:        ttl,
		assumeBusy: assumeBusy,
		io:         make([]int, numSites),
		cpu:        make([]int, numSites),
		cpuWork:    make([]float64, numSites),
		ioWork:     make([]float64, numSites),
		dio:        make([]int, numSites),
		dcpu:       make([]int, numSites),
		dcpuWork:   make([]float64, numSites),
		dioWrk:     make([]float64, numSites),
		last:       make([]time.Time, numSites),
	}
}

// Ingest installs one site's report, stamping it at now and clearing the
// site's optimistic delta (the report observed the routed queries
// itself, or they completed; either way the report is authoritative).
func (t *LiveTable) Ingest(site, numIO, numCPU int, cpuWork, ioWork float64, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.io[site] = numIO
	t.cpu[site] = numCPU
	t.cpuWork[site] = cpuWork
	t.ioWork[site] = ioWork
	t.dio[site] = 0
	t.dcpu[site] = 0
	t.dcpuWork[site] = 0
	t.dioWrk[site] = 0
	t.last[site] = now
}

// NoteAssign commits a decision optimistically: site carries one more
// query of the given bound, and the query's estimated demands, until its
// next report.
func (t *LiveTable) NoteAssign(site int, b workload.Bound, cpuWork, ioWork float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b == workload.IOBound {
		t.dio[site]++
	} else {
		t.dcpu[site]++
	}
	t.dcpuWork[site] += cpuWork
	t.dioWrk[site] += ioWork
}

// BeginDecision fixes the freshness epoch for the decision in progress.
func (t *LiveTable) BeginDecision(now time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// fresh reports entry freshness against the current epoch. Caller holds mu.
func (t *LiveTable) fresh(site int) bool {
	return !t.last[site].IsZero() && t.now.Sub(t.last[site]) <= t.ttl
}

// Fresh reports whether site's entry is within the TTL of the epoch set
// by BeginDecision.
func (t *LiveTable) Fresh(site int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fresh(site)
}

// LastReport returns the receive time of site's last report (zero if it
// never reported).
func (t *LiveTable) LastReport(site int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[site]
}

// Committed returns the site's committed query count ignoring staleness
// — last reported counts plus optimistic deltas. The admission cap
// checks this rather than the aged view so a stale site cannot dodge the
// cap by reading AssumeBusy.
func (t *LiveTable) Committed(site int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.io[site] + t.cpu[site] + t.dio[site] + t.dcpu[site]
}

// ReadCounts reads the aged view of the listed sites under one lock: a
// stale site reads AssumeBusy in all three counts.
func (t *LiveTable) ReadCounts(sites, io, cpu, total []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range sites {
		if !t.fresh(s) {
			io[i], cpu[i], total[i] = t.assumeBusy, t.assumeBusy, t.assumeBusy
			continue
		}
		io[i] = t.io[s] + t.dio[s]
		cpu[i] = t.cpu[s] + t.dcpu[s]
		total[i] = io[i] + cpu[i]
	}
}

// NumQueries returns the aged view's query count at site.
func (t *LiveTable) NumQueries(site int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh(site) {
		return t.assumeBusy
	}
	return t.io[site] + t.cpu[site] + t.dio[site] + t.dcpu[site]
}

// NumIOQueries returns the aged view's I/O-bound count at site.
func (t *LiveTable) NumIOQueries(site int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh(site) {
		return t.assumeBusy
	}
	return t.io[site] + t.dio[site]
}

// NumCPUQueries returns the aged view's CPU-bound count at site.
func (t *LiveTable) NumCPUQueries(site int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh(site) {
		return t.assumeBusy
	}
	return t.cpu[site] + t.dcpu[site]
}

// CPUWork returns the aged view's outstanding CPU work at site.
func (t *LiveTable) CPUWork(site int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh(site) {
		return float64(t.assumeBusy)
	}
	return t.cpuWork[site] + t.dcpuWork[site]
}

// IOWork returns the aged view's outstanding disk work at site.
func (t *LiveTable) IOWork(site int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.fresh(site) {
		return float64(t.assumeBusy)
	}
	return t.ioWork[site] + t.dioWrk[site]
}
