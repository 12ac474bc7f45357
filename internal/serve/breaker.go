package serve

import (
	"sync"
	"time"
)

// BreakerState is one site's circuit-breaker state.
type BreakerState uint8

const (
	// BreakerClosed routes normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen routes nothing: the site is presumed unreachable
	// (report gap) or overloaded (rejection feedback).
	BreakerOpen
	// BreakerHalfOpen routes a bounded number of probe decisions while
	// waiting for a clean report to confirm recovery.
	BreakerHalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breakerSet holds one circuit breaker per site. Two signals drive the
// state machine:
//
//   - Report gaps. A site silent for longer than GapFactor×TTL trips to
//     open lazily, at the next routability check. A never-reported site
//     starts open: it has not yet proven it exists.
//   - Rejection feedback. RejectThreshold consecutive reports carrying
//     Rejected > 0 trip to open; the site is alive but shedding, so
//     routing more work there only feeds the overload.
//   - Latency feedback. A report carrying LatencyMS above the SlowLatency
//     threshold marks the site slow-but-reporting — a gray failure the
//     gap detector can never see, because the site keeps talking. Such a
//     report does NOT close the breaker: a closed breaker demotes to
//     half-open probation, and a half-open one has its probe budget
//     refreshed, so the slow site receives a bounded probe trickle while
//     the bulk of traffic routes around it until a fast report closes it.
//
// open → half-open after the OpenFor cooldown; half-open admits up to
// HalfOpenProbes routed decisions, then re-opens (restarting the
// cooldown) unless a clean report (Rejected == 0 and latency under the
// threshold) arrives, which closes the breaker from any state.
//
// OnReport is called from report handlers and CanRoute/RoutedProbe
// from the decide that holds the decision token; one mutex guards the set.
type breakerSet struct {
	mu        sync.Mutex
	gap       time.Duration
	openFor   time.Duration
	threshold int
	probes    int
	slowMS    float64 // SlowLatency in milliseconds; 0 disables

	state      []BreakerState
	openedAt   []time.Time
	rejects    []int
	probesLeft []int
	last       []time.Time
	opens      uint64
	slowTrips  uint64
}

func newBreakerSet(numSites int, cfg Config) *breakerSet {
	return &breakerSet{
		gap:        cfg.gap(),
		openFor:    cfg.OpenFor,
		threshold:  cfg.RejectThreshold,
		probes:     cfg.HalfOpenProbes,
		slowMS:     float64(cfg.SlowLatency) / float64(time.Millisecond),
		state:      make([]BreakerState, numSites),
		openedAt:   make([]time.Time, numSites),
		rejects:    make([]int, numSites),
		probesLeft: make([]int, numSites),
		last:       make([]time.Time, numSites),
	}
}

// toOpen trips site's breaker. Caller holds mu.
func (b *breakerSet) toOpen(site int, now time.Time) {
	b.state[site] = BreakerOpen
	b.openedAt[site] = now
	b.rejects[site] = 0
	b.opens++
}

// OnReport feeds one report's liveness, rejection, and latency feedback
// into site's breaker.
func (b *breakerSet) OnReport(site, rejected int, latencyMS float64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.last[site] = now
	if rejected > 0 {
		b.rejects[site]++
		switch b.state[site] {
		case BreakerHalfOpen:
			b.toOpen(site, now) // the probe load was rejected too
		case BreakerOpen:
			b.openedAt[site] = now // still failing; restart the cooldown
		case BreakerClosed:
			if b.rejects[site] >= b.threshold {
				b.toOpen(site, now)
			}
		}
		return
	}
	b.rejects[site] = 0
	if b.slowMS > 0 && latencyMS > b.slowMS {
		// Slow-but-reporting: the site is alive (the gap detector stays
		// quiet) yet degraded. Probation, not closure: a closed breaker
		// demotes to half-open, a half-open one gets a fresh probe
		// budget, and an open one keeps its cooldown.
		switch b.state[site] {
		case BreakerClosed:
			b.state[site] = BreakerHalfOpen
			b.probesLeft[site] = b.probes
			b.slowTrips++
		case BreakerHalfOpen:
			b.probesLeft[site] = b.probes
		}
		return
	}
	b.state[site] = BreakerClosed // a clean report closes from any state
}

// CanRoute reports whether a decision may consider site, advancing the
// state machine lazily: silent sites trip open, cooled-down breakers
// move to half-open with a fresh probe budget.
func (b *breakerSet) CanRoute(site int, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state[site] != BreakerOpen &&
		(b.last[site].IsZero() || now.Sub(b.last[site]) > b.gap) {
		b.toOpen(site, now)
	}
	switch b.state[site] {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt[site]) < b.openFor {
			return false
		}
		// Cooldown over, but a site silent past the gap stays open: a
		// probe routed to a site that has not spoken at all is wasted.
		if b.last[site].IsZero() || now.Sub(b.last[site]) > b.gap {
			b.openedAt[site] = now
			return false
		}
		b.state[site] = BreakerHalfOpen
		b.probesLeft[site] = b.probes
		return true
	default: // half-open
		return b.probesLeft[site] > 0
	}
}

// RoutedProbe consumes one half-open probe after a decision actually
// routed to site; exhausting the budget without a clean report re-opens.
func (b *breakerSet) RoutedProbe(site int, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state[site] != BreakerHalfOpen {
		return
	}
	b.probesLeft[site]--
	if b.probesLeft[site] <= 0 {
		b.toOpen(site, now)
	}
}

// States snapshots every breaker's state name, for the stats endpoint.
func (b *breakerSet) States() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.state))
	for i, s := range b.state {
		out[i] = s.String()
	}
	return out
}

// Opens returns the total number of open transitions since start.
func (b *breakerSet) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// SlowTrips returns how many closed→half-open probation demotions
// latency feedback has caused since start.
func (b *breakerSet) SlowTrips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slowTrips
}

// AnyRoutable reports whether any site would pass CanRoute, without
// consuming probes or mutating state beyond the lazy gap check.
func (b *breakerSet) AnyRoutable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for site := range b.state {
		switch b.state[site] {
		case BreakerClosed:
			if !b.last[site].IsZero() && now.Sub(b.last[site]) <= b.gap {
				return true
			}
		case BreakerHalfOpen:
			if b.probesLeft[site] > 0 {
				return true
			}
		case BreakerOpen:
			if now.Sub(b.openedAt[site]) >= b.openFor &&
				!b.last[site].IsZero() && now.Sub(b.last[site]) <= b.gap {
				return true
			}
		}
	}
	return false
}
