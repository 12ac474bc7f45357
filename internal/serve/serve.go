// Package serve turns the paper's allocation procedure into a live
// service: an HTTP/JSON daemon that ingests per-site load reports (the
// wire form of the loadinfo status broadcasts), answers "which site runs
// this query" through the existing policy/Tuning stack, and wraps every
// path in a production robustness stack — per-request deadlines, a
// staleness tracker that ages load-table entries into a degraded
// assume-busy view, per-site circuit breakers, bounded-queue
// backpressure, health/readiness endpoints, and graceful drain.
//
// The simulator remains the offline twin: given identical load tables, a
// serve-mode decision stream is bit-identical to the sim-mode policy's
// selections (see parity_test.go), so policies tuned offline carry over
// unchanged.
//
// Layering (one decision token serializes all mutable decision state):
//
//	decide handler ──token──▶ Core.Decide
//	      │                        │
//	      └── reports ──▶ LiveTable / breakers
//
// Each decide handler decodes, validates, takes the one-slot decision
// token and runs the policy itself (whose selector state and random
// streams are deliberately not concurrency-safe, exactly like the
// simulator's), so every request resolves exactly once, on the goroutine
// that answers it, even when it races its deadline.
package serve

import (
	"fmt"
	"math"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/workload"
)

// Config parameterizes the service. The zero value is invalid; start
// from Default.
type Config struct {
	// NumSites is the number of execution sites decisions choose among.
	NumSites int
	// Policy and Tuning select the allocation algorithm and its
	// anti-herd knobs, exactly as in the simulator.
	Policy policy.Kind
	Tuning policy.Tuning
	// Seed drives the service's random streams (RANDOM policy, PowerK
	// sampling, tie-breaking). Decisions are deterministic given the
	// seed and the request/report sequence.
	Seed uint64
	// Classes is the query-class table; decide requests name a class by
	// index and may override its demand estimates.
	Classes []workload.Class
	// NumDisks, DiskTime and MsgTime are the hardware/cost-model
	// parameters the cost functions consult (paper Table 7).
	NumDisks int
	DiskTime float64
	MsgTime  float64

	// TTL is the report freshness horizon: a site whose last report is
	// older than TTL is aged into the degraded assume-busy view.
	TTL time.Duration
	// GapFactor opens a site's circuit breaker after GapFactor×TTL
	// without any report — the site is presumed unreachable, not merely
	// stale. Must be ≥ 1.
	GapFactor float64
	// AssumeBusy is the query count a stale entry reads as, so policies
	// avoid stale sites whenever a fresh alternative exists.
	AssumeBusy int

	// RejectThreshold opens a breaker after this many consecutive
	// reports carrying rejection feedback (Report.Rejected > 0).
	RejectThreshold int
	// OpenFor is the open→half-open cooldown.
	OpenFor time.Duration
	// HalfOpenProbes is how many decisions may be routed to a half-open
	// site before it re-opens (absent a clean report closing it).
	HalfOpenProbes int
	// SlowLatency is the gray-failure threshold: a report whose
	// latency_ms exceeds it marks the site slow-but-reporting, and the
	// site's breaker enters half-open probation instead of closing — a
	// bounded probe trickle keeps testing it while the bulk of traffic
	// routes elsewhere. Zero disables latency-driven breaking.
	SlowLatency time.Duration

	// AdmitMax caps the committed query count per site (0 = unbounded):
	// a decision whose chosen site is at the cap is rejected with 429,
	// the serving analogue of the simulator's admission control.
	AdmitMax int

	// QueueBound bounds the decides waiting for the decision token;
	// requests beyond it are shed immediately with 429 + Retry-After.
	QueueBound int
	// DefaultDeadline applies to decide requests that carry none;
	// MaxDeadline clamps client-supplied deadlines.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// Clock substitutes a time source in tests; nil means time.Now.
	Clock func() time.Time
}

// Default returns a serving configuration mirroring the simulator's
// baseline (system.Default): 6 sites, 2 disks, the 50/50 io/cpu class
// mix, LERT — plus serving-layer defaults tuned for ~100ms report
// periods.
func Default() Config {
	return Config{
		NumSites: 6,
		Policy:   policy.LERT,
		Seed:     1,
		Classes: []workload.Class{
			{Name: "io", PageCPUTime: 0.05, NumReads: 20, MsgLength: 1},
			{Name: "cpu", PageCPUTime: 1.0, NumReads: 20, MsgLength: 1},
		},
		NumDisks: 2,
		DiskTime: 1,
		MsgTime:  1,

		TTL:        time.Second,
		GapFactor:  3,
		AssumeBusy: 1 << 16,

		RejectThreshold: 3,
		OpenFor:         2 * time.Second,
		HalfOpenProbes:  4,
		SlowLatency:     250 * time.Millisecond,

		QueueBound:      1024,
		DefaultDeadline: 50 * time.Millisecond,
		MaxDeadline:     time.Second,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumSites < 1:
		return fmt.Errorf("serve: NumSites %d < 1", c.NumSites)
	case len(c.Classes) == 0:
		return fmt.Errorf("serve: no query classes")
	case c.NumDisks < 1:
		return fmt.Errorf("serve: NumDisks %d < 1", c.NumDisks)
	case c.DiskTime <= 0:
		return fmt.Errorf("serve: DiskTime %v must be positive", c.DiskTime)
	case c.MsgTime < 0:
		return fmt.Errorf("serve: negative MsgTime %v", c.MsgTime)
	case c.TTL <= 0:
		return fmt.Errorf("serve: TTL %v must be positive", c.TTL)
	case math.IsNaN(c.GapFactor) || c.GapFactor < 1:
		return fmt.Errorf("serve: GapFactor %v must be ≥ 1", c.GapFactor)
	case c.AssumeBusy < 1:
		return fmt.Errorf("serve: AssumeBusy %d < 1", c.AssumeBusy)
	case c.RejectThreshold < 1:
		return fmt.Errorf("serve: RejectThreshold %d < 1", c.RejectThreshold)
	case c.OpenFor <= 0:
		return fmt.Errorf("serve: OpenFor %v must be positive", c.OpenFor)
	case c.HalfOpenProbes < 1:
		return fmt.Errorf("serve: HalfOpenProbes %d < 1", c.HalfOpenProbes)
	case c.SlowLatency < 0:
		return fmt.Errorf("serve: negative SlowLatency %v", c.SlowLatency)
	case c.AdmitMax < 0:
		return fmt.Errorf("serve: negative AdmitMax %d", c.AdmitMax)
	case c.QueueBound < 1:
		return fmt.Errorf("serve: QueueBound %d < 1", c.QueueBound)
	case c.DefaultDeadline <= 0:
		return fmt.Errorf("serve: DefaultDeadline %v must be positive", c.DefaultDeadline)
	case c.MaxDeadline < c.DefaultDeadline:
		return fmt.Errorf("serve: MaxDeadline %v below DefaultDeadline %v", c.MaxDeadline, c.DefaultDeadline)
	}
	for _, cl := range c.Classes {
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if c.Tuning.Enabled() {
		if err := c.Tuning.Validate(c.NumSites); err != nil {
			return err
		}
		switch c.Policy {
		case policy.BNQ, policy.BNQRD, policy.LERT, policy.Work:
		default:
			return fmt.Errorf("serve: tuning requires a cost-based policy, not %v", c.Policy)
		}
	}
	return nil
}

// gap returns the report gap beyond which a breaker opens.
func (c Config) gap() time.Duration {
	return time.Duration(c.GapFactor * float64(c.TTL))
}

// clock returns the configured time source.
func (c Config) clock() func() time.Time {
	if c.Clock != nil {
		return c.Clock
	}
	return time.Now
}

// classMeans fills zero-valued estimate fields from the class table, the
// same default a cost-based optimizer supplies in the simulator.
func (c Config) classMeans(q *workload.Query) {
	cl := c.Classes[q.Class]
	if q.EstReads == 0 {
		q.EstReads = cl.NumReads
	}
	if q.EstPageCPU == 0 {
		q.EstPageCPU = cl.PageCPUTime
	}
}
