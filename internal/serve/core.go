package serve

import (
	"fmt"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// Outcome classifies one decision request's fate. Every request resolves
// to exactly one outcome; the chaos harness asserts the counts conserve.
type Outcome uint8

const (
	// OutcomeDecided means the policy chose a site from a (partially)
	// fresh view.
	OutcomeDecided Outcome = iota
	// OutcomeFallback means every routable site's view had expired, so
	// the site was chosen round-robin — degraded but available.
	OutcomeFallback
	// OutcomeNoCapacity means the chosen site was at the AdmitMax cap;
	// the client should back off and retry.
	OutcomeNoCapacity
	// OutcomeNoSites means every site's breaker refused routing.
	OutcomeNoSites
)

// String names the outcome for stats and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeDecided:
		return "decided"
	case OutcomeFallback:
		return "fallback"
	case OutcomeNoCapacity:
		return "no-capacity"
	case OutcomeNoSites:
		return "no-sites"
	default:
		return "unknown"
	}
}

// Core is the single-threaded decision engine: the policy stack from the
// simulator wired to the live table and breakers. Exactly one goroutine
// may call Decide (the policy selector's cursor state and random streams
// are not concurrency-safe, by design — determinism needs a serial
// decision order); Table ingestion and breaker report feedback are safe
// from other goroutines.
//
// Random streams: the root stream is rng.NewStream(cfg.Seed) and the
// policy consumes root.Child(1) — parity tests reconstruct the sim-mode
// policy from the same derivation.
type Core struct {
	cfg      Config
	table    *LiveTable
	breakers *breakerSet
	pol      policy.Policy
	env      policy.Env
	up       []bool
	rr       int
}

// NewCore builds a decision engine from cfg.
func NewCore(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.NewStream(cfg.Seed)
	var pol policy.Policy
	var err error
	if cfg.Tuning.Enabled() {
		pol, err = policy.NewTuned(cfg.Policy, cfg.NumSites, cfg.Tuning, root.Child(1))
	} else {
		pol, err = policy.New(cfg.Policy, cfg.NumSites, root.Child(1))
	}
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:      cfg,
		table:    NewLiveTable(cfg.NumSites, cfg.TTL, cfg.AssumeBusy),
		breakers: newBreakerSet(cfg.NumSites, cfg),
		pol:      pol,
		up:       make([]bool, cfg.NumSites),
	}
	c.env = policy.Env{
		View:     c.table,
		NumSites: cfg.NumSites,
		NumDisks: cfg.NumDisks,
		DiskTime: cfg.DiskTime,
		NetTime: func(q *workload.Query) float64 {
			// Query shipped out plus results shipped back, the
			// simulator's cost model (system.New).
			return 2 * cfg.MsgTime * cfg.Classes[q.Class].MsgLength
		},
		Up: c.up,
	}
	return c, nil
}

// Table returns the live load table (for report ingestion).
func (c *Core) Table() *LiveTable { return c.table }

// Policy returns the configured policy's name.
func (c *Core) Policy() string { return c.pol.Name() }

// Breakers exposes breaker state names for the stats endpoint.
func (c *Core) Breakers() []string { return c.breakers.States() }

// BreakerOpens returns the cumulative count of breaker open transitions.
func (c *Core) BreakerOpens() uint64 { return c.breakers.Opens() }

// SlowProbations returns how many times latency feedback demoted a
// closed breaker into half-open probation (gray-failure detections).
func (c *Core) SlowProbations() uint64 { return c.breakers.SlowTrips() }

// Ready reports whether at least one site is currently routable.
func (c *Core) Ready(now time.Time) bool { return c.breakers.AnyRoutable(now) }

// Report ingests one site's load report: table entry, freshness stamp,
// and breaker feedback (rejections and observed latency). Safe for
// concurrent use. latencyMS zero means "not measured".
func (c *Core) Report(site, numIO, numCPU int, cpuWork, ioWork float64, rejected int, latencyMS float64, now time.Time) error {
	if site < 0 || site >= c.cfg.NumSites {
		return fmt.Errorf("serve: site %d out of range [0,%d)", site, c.cfg.NumSites)
	}
	c.table.Ingest(site, numIO, numCPU, cpuWork, ioWork, now)
	c.breakers.OnReport(site, rejected, latencyMS, now)
	return nil
}

// Decide chooses the execution site for q at time now. Only the decision
// loop may call it. The returned site is policy.NoSite unless the
// outcome is OutcomeDecided or OutcomeFallback.
func (c *Core) Decide(q *workload.Query, now time.Time) (int, Outcome) {
	c.table.BeginDecision(now)
	anyUp, anyFresh := false, false
	for s := 0; s < c.cfg.NumSites; s++ {
		c.up[s] = c.breakers.CanRoute(s, now)
		if c.up[s] {
			anyUp = true
			if c.table.Fresh(s) {
				anyFresh = true
			}
		}
	}
	if !anyUp {
		return policy.NoSite, OutcomeNoSites
	}
	if !anyFresh {
		// Every surviving view has expired: the table would read
		// AssumeBusy everywhere, so pretending to cost sites is theater.
		// Degrade honestly to round-robin over the routable sites. The
		// admission cap still binds — Committed ignores staleness, so a
		// staleness episode must not drive sites past AdmitMax.
		for i := 0; i < c.cfg.NumSites; i++ {
			s := (c.rr + i) % c.cfg.NumSites
			if !c.up[s] {
				continue
			}
			if c.cfg.AdmitMax > 0 && c.table.Committed(s) >= c.cfg.AdmitMax {
				continue
			}
			c.rr = (s + 1) % c.cfg.NumSites
			c.commit(q, s, now)
			return s, OutcomeFallback
		}
		// anyUp held, so some site was routable: they were all capped.
		return policy.NoSite, OutcomeNoCapacity
	}
	s := c.pol.Select(q, q.Home, &c.env)
	if s == policy.NoSite {
		return policy.NoSite, OutcomeNoSites
	}
	if c.cfg.AdmitMax > 0 && c.table.Committed(s) >= c.cfg.AdmitMax {
		return policy.NoSite, OutcomeNoCapacity
	}
	c.commit(q, s, now)
	return s, OutcomeDecided
}

// commit records the decision in the live table (optimistic commitment
// semantics) and consumes a half-open probe if the site was probing.
func (c *Core) commit(q *workload.Query, site int, now time.Time) {
	bound := policy.QueryBound(q, c.cfg.DiskTime, c.cfg.NumDisks)
	c.table.NoteAssign(site, bound, q.EstCPUDemand(), q.EstDiskDemand(c.cfg.DiskTime))
	c.breakers.RoutedProbe(site, now)
}
