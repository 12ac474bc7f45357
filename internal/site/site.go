// Package site models one DB processing site of the paper's Figure 2: a
// processor-sharing CPU and an array of FCFS disks, through which an
// executing query cycles num_reads times — each cycle reading one page
// from a disk and then processing it on the CPU.
//
// The terminals and the outgoing message queue of Figure 2 live one level
// up (internal/system and internal/network): this package is strictly the
// execution engine of a site.
package site

import (
	"fmt"

	"dqalloc/internal/queue"
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// DiskDist selects the disk service-time distribution.
type DiskDist int

const (
	// DiskUniform draws page access times uniformly on DiskTime ±
	// DiskTimeDev·DiskTime — the paper's simulation setting (Table 7).
	DiskUniform DiskDist = iota + 1
	// DiskExponential draws exponential page access times with mean
	// DiskTime — the paper's Section 3 analytical setting, which makes
	// the site an exact product-form network for MVA cross-validation.
	DiskExponential
)

// String returns the distribution name.
func (d DiskDist) String() string {
	switch d {
	case DiskUniform:
		return "uniform"
	case DiskExponential:
		return "exponential"
	default:
		return "unknown"
	}
}

// Config describes a site's hardware and workload classes (Table 1).
type Config struct {
	// NumDisks is the number of disks at the site.
	NumDisks int
	// DiskTime is the mean time to access one disk page.
	DiskTime float64
	// DiskTimeDev is the half-width of the uniform disk-time distribution
	// expressed as a fraction of DiskTime (Table 7 uses 20%). Ignored for
	// DiskExponential.
	DiskTimeDev float64
	// DiskDist selects the disk service-time distribution; the zero value
	// means DiskUniform.
	DiskDist DiskDist
	// CPUSpeed scales the CPU's service rate (1.0 = the paper's
	// homogeneous baseline; 2.0 halves every CPU burst). Zero means 1.0.
	// The paper assumes homogeneity; this knob is the heterogeneity
	// extension.
	CPUSpeed float64
	// DiskSelection picks the disk serving each read.
	DiskSelection queue.DiskSelection
	// Classes is the query class table; per-page CPU service times are
	// exponential with the class mean.
	Classes []workload.Class

	// CycleHook, when non-nil, runs after each completed read/process
	// cycle except the last. Returning true means the hook took ownership
	// of the query (it is migrating away); the site then forgets it.
	// This is the attachment point for the paper's future-work idea of
	// moving partially executed queries "between primitive operations".
	// Like a policy, the hook must not keep q past the call: the system
	// pools its queries.
	CycleHook func(q *workload.Query) bool
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumDisks < 1:
		return fmt.Errorf("site: NumDisks %d < 1", c.NumDisks)
	case c.DiskTime <= 0:
		return fmt.Errorf("site: DiskTime %v must be positive", c.DiskTime)
	case c.DiskTimeDev < 0 || c.DiskTimeDev >= 1:
		return fmt.Errorf("site: DiskTimeDev %v outside [0,1)", c.DiskTimeDev)
	case len(c.Classes) == 0:
		return fmt.Errorf("site: no query classes")
	}
	if c.DiskDist != 0 && c.DiskDist != DiskUniform && c.DiskDist != DiskExponential {
		return fmt.Errorf("site: invalid disk distribution %d", c.DiskDist)
	}
	if c.CPUSpeed < 0 {
		return fmt.Errorf("site: negative CPU speed %v", c.CPUSpeed)
	}
	if c.DiskSelection != queue.SelectRandom && c.DiskSelection != queue.SelectShortestQueue {
		return fmt.Errorf("site: invalid disk selection %d", c.DiskSelection)
	}
	for _, cl := range c.Classes {
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("site: %w", err)
		}
	}
	return nil
}

// Site executes queries on its CPU and disks. Each query admitted via
// Execute cycles (disk read → CPU processing) until its sampled read
// count is exhausted, then the completion callback fires.
//
// A site holds its service centers and random streams by value, and
// their event actions are bound to its address: a Site must not be
// copied once built.
type Site struct {
	id    int
	sched *sim.Scheduler
	cfg   Config
	done  func(*workload.Query)

	cpu     queue.PS[*workload.Query]
	disks   queue.DiskArray[*workload.Query]
	diskSvc rng.Stream
	cpuSvc  rng.Stream

	active int
}

// New builds an idle site. stream seeds the site's private service-time
// and disk-selection streams; done fires when a query's last CPU burst
// completes (while the query is still counted at the site).
func New(id int, sched *sim.Scheduler, cfg Config, stream *rng.Stream, done func(*workload.Query)) (*Site, error) {
	s := new(Site)
	if err := s.Init(id, sched, cfg, stream, nil, done); err != nil {
		return nil, err
	}
	return s, nil
}

// Init builds an idle site in place, as New does, so that many sites can
// live on one backing array. disks is the storage for the site's
// cfg.NumDisks disks, letting those arrays share one backing slice too;
// nil makes Init allocate it.
func (s *Site) Init(id int, sched *sim.Scheduler, cfg Config, stream *rng.Stream, disks []queue.FCFS[*workload.Query], done func(*workload.Query)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if done == nil {
		return fmt.Errorf("site: nil completion callback")
	}
	if stream == nil {
		return fmt.Errorf("site: nil random stream")
	}
	if disks == nil {
		disks = make([]queue.FCFS[*workload.Query], cfg.NumDisks)
	}
	if len(disks) != cfg.NumDisks {
		panic(fmt.Sprintf("site: storage for %d disks, config has %d", len(disks), cfg.NumDisks))
	}
	*s = Site{id: id, sched: sched, cfg: cfg, done: done}
	s.diskSvc = stream.Derive(1)
	s.cpuSvc = stream.Derive(2)
	sel := stream.Derive(3)
	s.cpu.Init(sched, s.onCPUDone)
	s.disks.Init(sched, disks, cfg.DiskSelection, &sel, s.onDiskDone)
	return nil
}

// ID returns the site's index.
func (s *Site) ID() int { return s.id }

// Active returns the number of queries currently executing at the site.
func (s *Site) Active() int { return s.active }

// Occupancy returns the number of queries currently at the CPU and at the
// disk array. Between events every active query is at exactly one of the
// two service centers, so cpu + disk == Active() — a structural invariant
// the internal/check auditors verify at runtime.
func (s *Site) Occupancy() (cpu, disk int) {
	return s.cpu.QueueLen(), s.disks.QueueLen()
}

// Execute admits a query: its first page read is dispatched immediately.
// The query must have ReadsTotal >= 1 and a valid class index.
func (s *Site) Execute(q *workload.Query) {
	if q.Class < 0 || q.Class >= len(s.cfg.Classes) {
		panic(fmt.Sprintf("site: query class %d out of range", q.Class))
	}
	if q.ReadsTotal < 1 {
		panic("site: query with no reads")
	}
	s.active++
	s.startRead(q)
}

// Crash drains the site mid-run (fault-injection extension): every
// executing query is removed from the CPU and the disks without
// completing, their pending service events are cancelled, and the lost
// queries are returned in deterministic order — CPU jobs in arrival
// order first, then disk jobs in disk-index order. The site object
// itself stays usable; whether new queries may be routed to it while it
// is "down", and when it is repaired, is the caller's concern.
func (s *Site) Crash() []*workload.Query {
	lost := s.cpu.Drain()
	lost = append(lost, s.disks.Drain()...)
	s.active = 0
	return lost
}

// Abort withdraws one executing query without completing it (the
// deadline-abort / hedge-cancellation extension): wherever its current
// cycle has it — sharing the CPU or queued at a disk — it is removed
// and the pending service event adjusted, exactly as if that one query
// had crashed. Reports whether the query was present; false means it
// is not at this site (e.g. still in transit on the ring).
func (s *Site) Abort(q *workload.Query) bool {
	match := func(j *workload.Query) bool { return j == q }
	if _, ok := s.cpu.RemoveFunc(match); ok {
		s.active--
		return true
	}
	if _, ok := s.disks.RemoveFunc(match); ok {
		s.active--
		return true
	}
	return false
}

// SetCPURate scales the CPU's live service rate (fail-slow extension):
// in-progress sharing is settled at the old rate, then every present and
// future burst proceeds at the new one. 1 restores full speed.
func (s *Site) SetCPURate(rate float64) { s.cpu.SetRate(rate) }

// SetDiskRate scales every disk's live service rate (fail-slow
// extension); the in-service read keeps its completed work and only the
// remainder stretches. 1 restores full speed.
func (s *Site) SetDiskRate(rate float64) { s.disks.SetRate(rate) }

// CPUUtilization returns the CPU busy fraction over the stats window
// ending at t.
func (s *Site) CPUUtilization(t float64) float64 { return s.cpu.Utilization(t) }

// DiskUtilization returns the mean disk busy fraction over the stats
// window ending at t.
func (s *Site) DiskUtilization(t float64) float64 { return s.disks.Utilization(t) }

// CPULoad returns the time-average number of queries at the CPU.
func (s *Site) CPULoad(t float64) float64 { return s.cpu.MeanLoad(t) }

// PagesRead returns the number of completed page reads.
func (s *Site) PagesRead() uint64 { return s.disks.Served() }

// ResetStats restarts the site's measurement windows at t.
func (s *Site) ResetStats(t float64) {
	s.cpu.ResetStats(t)
	s.disks.ResetStats(t)
}

// startRead samples a disk access time from the configured distribution
// and dispatches the read.
func (s *Site) startRead(q *workload.Query) {
	var service float64
	if s.cfg.DiskDist == DiskExponential {
		service = s.diskSvc.Exp(s.cfg.DiskTime)
	} else {
		service = s.cfg.DiskTime
		if dev := s.cfg.DiskTime * s.cfg.DiskTimeDev; dev > 0 {
			service = s.diskSvc.Uniform(s.cfg.DiskTime-dev, s.cfg.DiskTime+dev)
		}
	}
	q.Service += service
	q.DiskService += service
	s.disks.Enqueue(q, service)
}

// onDiskDone moves a query from disk to CPU with an exponential per-page
// processing requirement, scaled by the site's CPU speed.
func (s *Site) onDiskDone(q *workload.Query) {
	mean := s.cfg.Classes[q.Class].PageCPUTime
	if q.PageCPU > 0 {
		// Operator carriers (parallel-query extension) override the class
		// mean: a join or filter page costs differently than a scan page.
		mean = q.PageCPU
	}
	if s.cfg.CPUSpeed > 0 {
		mean /= s.cfg.CPUSpeed
	}
	service := s.cpuSvc.Exp(mean)
	q.Service += service
	s.cpu.Enqueue(q, service)
}

// onCPUDone finishes one read/process cycle and either starts the next
// read, hands the query to the migration hook, or completes it.
func (s *Site) onCPUDone(q *workload.Query) {
	q.ReadsDone++
	if q.ReadsDone < q.ReadsTotal {
		if s.cfg.CycleHook != nil && s.cfg.CycleHook(q) {
			s.active--
			return
		}
		s.startRead(q)
		return
	}
	s.active--
	s.done(q)
}
