// Package system assembles the complete distributed database model of the
// paper's Figure 1: a set of homogeneous DB sites (internal/site), each
// with a set of terminals, connected by a token-ring subnet
// (internal/network), with a dynamic query allocation policy
// (internal/policy) deciding where each newly submitted query executes.
// It is a closed queuing model: each of the mpl terminals per site cycles
// think → submit → wait-for-results.
package system

import (
	"fmt"
	"math"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/queue"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
	"dqalloc/internal/site"
	"dqalloc/internal/workload"
)

// InfoMode selects how allocators learn remote loads.
type InfoMode int

const (
	// InfoPerfect gives allocators the live load table — the paper's
	// working assumption (Section 2).
	InfoPerfect InfoMode = iota + 1
	// InfoPeriodic gives allocators a snapshot refreshed every InfoPeriod
	// time units (the staleness extension of Section 4.4).
	InfoPeriodic
)

// String returns the mode name.
func (m InfoMode) String() string {
	switch m {
	case InfoPerfect:
		return "perfect"
	case InfoPeriodic:
		return "periodic"
	default:
		return "unknown"
	}
}

// Config parameterizes one simulation run. Zero values are invalid except
// where noted; use Default() for the paper's Table 7 baseline.
type Config struct {
	// NumSites is the number of DB sites (Table 7: 2–10, default 6).
	NumSites int
	// NumDisks is the number of disks per site (Table 7: 2).
	NumDisks int
	// MPL is the number of terminals per site (Table 7: 15–30, default 20).
	MPL int

	// DiskTime is the mean page access time (Table 7: 1).
	DiskTime float64
	// DiskTimeDev is the uniform disk-time half-width as a fraction of
	// DiskTime (Table 7: 20%).
	DiskTimeDev float64
	// ThinkTime is the mean terminal think time (Table 7: 150–450,
	// default 350); exponential.
	ThinkTime float64

	// Classes and ClassProbs define the workload mix. ClassProbs[i] is
	// the probability a new query belongs to Classes[i].
	Classes    []workload.Class
	ClassProbs []float64
	// EstimateMode selects what the allocator sees as query demands.
	EstimateMode workload.EstimateMode

	// DiskSelection picks the disk serving each read.
	DiskSelection queue.DiskSelection
	// DiskDist selects the disk service-time distribution; the zero value
	// means the paper's uniform distribution.
	DiskDist site.DiskDist

	// PolicyKind selects a built-in allocation policy; CustomPolicy, if
	// non-nil, overrides it.
	PolicyKind   policy.Kind
	CustomPolicy policy.Policy

	// InfoMode and InfoPeriod configure load-information freshness.
	InfoMode   InfoMode
	InfoPeriod float64

	// Placement, when non-nil, makes the database partially replicated
	// (the future-work environment of Section 6.2): each query references
	// a uniformly random object and may only execute at the sites holding
	// a copy. nil means fully replicated — the paper's main environment.
	Placement *replica.Placement

	// Replication configures the self-healing replica manager on top of
	// Placement: crash-driven re-replication (a fragment dropping below
	// MinCopies gets rebuilt over the ring), load-driven replica add/drop
	// from EWMA access rates, and degraded remote reads when no up site
	// holds a fragment. Disabled (the zero value) by default; a disabled
	// run — including one with a static Placement — is event-for-event
	// identical to a build without the subsystem. Requires Placement.
	Replication replica.ManagerConfig

	// Migration enables mid-execution query migration at cycle
	// boundaries (the future-work extension of Section 6.2).
	Migration MigrationConfig

	// CPUSpeeds gives each site a CPU speed factor (heterogeneity
	// extension). nil or all-ones is the paper's homogeneous system; when
	// set it must have NumSites positive entries.
	CPUSpeeds []float64

	// MsgTime is the network transfer time per byte (Section 2, Table 3).
	// With MsgTime = 1 a class's MsgLength is directly the transfer time,
	// matching the collapsed msg_length parameter of Table 7.
	MsgTime float64

	// Trace, when non-nil, receives one CSV record per query completed
	// inside the measured window.
	Trace *Tracer

	// Noise configures the estimation-error injector: multiplicative
	// noise on each submitted query's EstReads/EstPageCPU, so policies
	// decide on imperfect optimizer predictions while execution consumes
	// the true sampled demands. Disabled (the zero value) by default; a
	// disabled run is event-for-event identical to one built without the
	// subsystem.
	Noise noise.Config

	// Tuning configures the selector's anti-herd defenses — hysteresis,
	// power-of-K candidate sampling, probabilistic tie-breaking. The zero
	// value restores the paper's plain Figure-3 loop bit for bit. Only
	// meaningful with a built-in cost-based PolicyKind (BNQ, BNQRD, LERT,
	// WORK).
	Tuning policy.Tuning

	// Admission configures per-site overload admission control: a bounded
	// run queue with defer-or-shed backpressure to the terminals.
	// Disabled (the zero value) by default; a disabled run is
	// event-for-event identical to one built without the subsystem.
	Admission AdmissionConfig

	// Fault configures the fault-injection subsystem: site crash/repair
	// processes, lossy/delayed transmissions and load broadcasts, and
	// the watchdog's timeout/retry failover. Disabled (the zero value)
	// by default; a disabled run is event-for-event identical to one
	// built without the subsystem.
	Fault fault.Config

	// Suspect configures the gray-failure suspicion detector: each
	// completed query feeds its execution site's realized-slowdown EWMA,
	// sites far above the population median are marked suspect, and the
	// allocation policies route around them (cost policies via a
	// surcharge, LOCAL/RANDOM via clean-site preference). Disabled (the
	// zero value) by default; a disabled run is event-for-event identical
	// to one built without the subsystem. Usually combined with
	// Fault.SlowMTTF — but it works against any slowness source, e.g.
	// heterogeneous CPUSpeeds.
	Suspect loadinfo.SuspectConfig

	// Arrival replaces the closed terminals with an open arrival process
	// — per-class Poisson or bursty 2-state MMPP sources (overload
	// extension). Disabled (the zero value) by default, preserving the
	// paper's closed model bit for bit.
	Arrival arrival.Config

	// Deadline arms a per-query response-time watchdog that aborts the
	// query wherever it is when the budget expires. Disabled (the zero
	// value) by default; a disabled run is event-for-event identical to
	// one built without the subsystem.
	Deadline DeadlineConfig

	// Hedge races straggling remote queries against a clone at the
	// next-best up site; the first finisher wins and the loser is
	// cancelled. Disabled (the zero value) by default; a disabled run is
	// event-for-event identical to one built without the subsystem.
	Hedge HedgeConfig

	// Parallel turns queries into small operator trees (scan/filter/join
	// plans) that the allocator may split across sites, with
	// intermediate results shipped over the ring. Disabled (the zero
	// value) by default; a disabled run is event-for-event identical to
	// one built without the subsystem.
	Parallel ParallelConfig

	// Scheduler selects the kernel's future-event list implementation:
	// sim.Calendar (the default adaptive calendar queue) or sim.Heap (the
	// reference binary heap). The two are observationally identical —
	// every run fires the same events in the same order with either, and
	// TraceDigest values match bit for bit — so this knob trades only
	// performance, and exists chiefly so regression suites can
	// cross-check the implementations on full macro runs.
	Scheduler sim.Impl

	// Audit attaches the internal/check runtime auditors to the run:
	// query conservation, utilization bounds, Little's law, event-clock
	// monotonicity, and ring message conservation. Off by default so hot
	// paths pay nothing; read violations with System.Audit after Run.
	Audit bool

	// TraceDigest maintains a running hash of every fired event's
	// (time, seq, kind) in the scheduler and reports it in
	// Results.TraceDigest. Two runs with the same configuration and seed
	// are event-for-event identical iff their digests match.
	TraceDigest bool

	// Seed selects the experiment's random streams.
	Seed uint64
	// Warmup is the transient discarded before measurement; Measure is
	// the measured horizon.
	Warmup  float64
	Measure float64
}

// Default returns the paper's baseline configuration (Table 7 with the
// defaults quoted in Section 5.1): 6 sites, 2 disks, mpl 20, think time
// 350, a 50/50 I/O-bound / CPU-bound mix with per-page CPU means 0.05 and
// 1.0, 20 reads per query, and msg_length 1.
func Default() Config {
	return Config{
		NumSites:    6,
		NumDisks:    2,
		MPL:         20,
		DiskTime:    1,
		DiskTimeDev: 0.2,
		ThinkTime:   350,
		Classes: []workload.Class{
			{Name: "io", PageCPUTime: 0.05, NumReads: 20, MsgLength: 1},
			{Name: "cpu", PageCPUTime: 1.0, NumReads: 20, MsgLength: 1},
		},
		ClassProbs:    []float64{0.5, 0.5},
		EstimateMode:  workload.EstimateClassMean,
		DiskSelection: queue.SelectRandom,
		PolicyKind:    policy.LERT,
		InfoMode:      InfoPerfect,
		MsgTime:       1,
		Seed:          1,
		Warmup:        5000,
		Measure:       50000,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumSites < 1:
		return fmt.Errorf("system: NumSites %d < 1", c.NumSites)
	case c.NumDisks < 1:
		return fmt.Errorf("system: NumDisks %d < 1", c.NumDisks)
	case c.MPL < 1:
		return fmt.Errorf("system: MPL %d < 1", c.MPL)
	case c.DiskTime <= 0:
		return fmt.Errorf("system: DiskTime %v must be positive", c.DiskTime)
	case c.DiskTimeDev < 0 || c.DiskTimeDev >= 1:
		return fmt.Errorf("system: DiskTimeDev %v outside [0,1)", c.DiskTimeDev)
	case !(c.ThinkTime >= 0) || math.IsInf(c.ThinkTime, 1):
		return fmt.Errorf("system: ThinkTime %v is not a finite non-negative number", c.ThinkTime)
	case c.MsgTime < 0:
		return fmt.Errorf("system: negative MsgTime %v", c.MsgTime)
	case c.Warmup < 0:
		return fmt.Errorf("system: negative Warmup %v", c.Warmup)
	case c.Measure <= 0:
		return fmt.Errorf("system: Measure %v must be positive", c.Measure)
	case math.IsNaN(c.Warmup) || math.IsNaN(c.Measure) || math.IsInf(c.Warmup+c.Measure, 0):
		return fmt.Errorf("system: horizon Warmup %v + Measure %v is not finite", c.Warmup, c.Measure)
	}
	if err := workload.ValidateMix(c.Classes, c.ClassProbs); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if c.InfoMode == InfoPeriodic && c.InfoPeriod <= 0 {
		return fmt.Errorf("system: periodic info needs positive InfoPeriod, got %v", c.InfoPeriod)
	}
	if c.InfoMode != InfoPerfect && c.InfoMode != InfoPeriodic {
		return fmt.Errorf("system: invalid InfoMode %d", c.InfoMode)
	}
	if c.Placement != nil && c.Placement.NumSites() != c.NumSites {
		return fmt.Errorf("system: placement spans %d sites, system has %d",
			c.Placement.NumSites(), c.NumSites)
	}
	if c.Replication.Enabled {
		if c.Placement == nil {
			return fmt.Errorf("system: replica manager requires a Placement")
		}
		if err := c.Replication.Validate(c.NumSites); err != nil {
			return fmt.Errorf("system: %w", err)
		}
	}
	if err := c.Migration.validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if err := c.Suspect.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if err := c.Noise.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if c.Tuning.Enabled() {
		if err := c.Tuning.Validate(c.NumSites); err != nil {
			return fmt.Errorf("system: %w", err)
		}
		if c.CustomPolicy != nil {
			return fmt.Errorf("system: anti-herd tuning cannot wrap a custom policy")
		}
		switch c.PolicyKind {
		case policy.BNQ, policy.BNQRD, policy.LERT, policy.Work:
		default:
			return fmt.Errorf("system: anti-herd tuning requires a cost-based policy, not %v", c.PolicyKind)
		}
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.Arrival.Validate(); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	if err := c.Deadline.validate(); err != nil {
		return err
	}
	if err := c.Hedge.validate(); err != nil {
		return err
	}
	if err := c.Parallel.validate(); err != nil {
		return err
	}
	if c.Parallel.Enabled {
		if c.Parallel.Hedge && !c.Hedge.Enabled {
			return fmt.Errorf("system: Parallel.Hedge requires Hedge.Enabled")
		}
		if c.Migration.Enabled {
			// Migration's cycle hook would move operator carriers without
			// the plan engine's knowledge.
			return fmt.Errorf("system: parallel queries and migration are mutually exclusive")
		}
	}
	if c.Scheduler != sim.Calendar && c.Scheduler != sim.Heap {
		return fmt.Errorf("system: invalid Scheduler %d", c.Scheduler)
	}
	if c.CPUSpeeds != nil {
		if len(c.CPUSpeeds) != c.NumSites {
			return fmt.Errorf("system: %d CPU speeds for %d sites", len(c.CPUSpeeds), c.NumSites)
		}
		for i, v := range c.CPUSpeeds {
			if v <= 0 {
				return fmt.Errorf("system: non-positive CPU speed %v at site %d", v, i)
			}
		}
	}
	return nil
}

// PolicyName returns the name of the policy a run with this config uses.
func (c Config) PolicyName() string {
	if c.CustomPolicy != nil {
		return c.CustomPolicy.Name()
	}
	return c.PolicyKind.String()
}
