package fault

import (
	"fmt"
	"math"

	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
)

// This file holds the fail-slow half of the fault model: per-site
// episodes during which a site keeps running — and keeps broadcasting
// load reports — but executes SlowFactor× slower, plus ring-wide
// brownout episodes inflating transmission times. Fail-slow is the
// gray-failure complement to the crash model in fault.go: nothing is
// lost, no watchdog fires, and the load-information feedback loop the
// allocation policies depend on is silently poisoned.

// Scheduler event kinds for the fail-slow layer (see sim.Event.Kind).
const (
	// EventKindSlowOn tags fail-slow episode onsets.
	EventKindSlowOn byte = 0x53
	// EventKindSlowOff tags fail-slow episode recoveries.
	EventKindSlowOff byte = 0x54
	// EventKindBrownoutOn tags ring-brownout onsets.
	EventKindBrownoutOn byte = 0x55
	// EventKindBrownoutOff tags ring-brownout recoveries.
	EventKindBrownoutOff byte = 0x56
)

// SlowTotals is the fail-slow ledger snapshot. The check.Conservation
// auditor reads it after each fail-slow or brownout transition and at
// measurement end, and pairs every onset with a recovery or an open
// episode.
type SlowTotals struct {
	// Episodes and Recoveries count fail-slow onsets and completed
	// recoveries; Degraded counts sites currently inside an episode.
	Episodes, Recoveries uint64
	Degraded             int
	// Brownouts and BrownoutEnds count ring-brownout onsets and ends;
	// BrownoutActive reports whether one is open now.
	Brownouts, BrownoutEnds uint64
	BrownoutActive          bool
}

// SlowInjector runs the per-site fail-slow processes and the ring
// brownout process. Like the crash Injector, each site draws onset and
// duration times from its own child stream (the brownout process gets
// the child one past the last site), so the gray-failure sample path is
// a common-random-numbers block shared across policies.
type SlowInjector struct {
	sched      *sim.Scheduler
	cfg        Config
	slowed     []bool
	streams    []*rng.Stream
	brStream   *rng.Stream
	onSlow     func(site int)
	onRecover  func(site int)
	onBrownout func(active bool)

	episodes     uint64
	recoveries   uint64
	brownouts    uint64
	brownoutEnds uint64
	brActive     bool

	slowSince   []float64 // valid while the site is slowed
	slowTime    []float64 // accumulated degraded time inside the stats window
	brSince     float64
	brTime      float64
	windowStart float64
}

// NewSlowInjector builds the fail-slow injector for numSites sites and
// schedules each site's first onset and the first brownout (each a no-op
// when its half of the config is off). onSlow and onRecover fire at the
// corresponding instants, after the slowness mask has been updated;
// onBrownout fires with the new brownout state.
func NewSlowInjector(sched *sim.Scheduler, numSites int, cfg Config, stream *rng.Stream, onSlow, onRecover func(site int), onBrownout func(active bool)) (*SlowInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numSites <= 0 {
		return nil, fmt.Errorf("fault: numSites %d must be positive", numSites)
	}
	if stream == nil {
		return nil, fmt.Errorf("fault: nil random stream")
	}
	inj := &SlowInjector{
		sched:      sched,
		cfg:        cfg,
		slowed:     make([]bool, numSites),
		streams:    make([]*rng.Stream, numSites),
		onSlow:     onSlow,
		onRecover:  onRecover,
		onBrownout: onBrownout,
		slowSince:  make([]float64, numSites),
		slowTime:   make([]float64, numSites),
	}
	if cfg.SlowFaults() {
		for s := range inj.slowed {
			inj.streams[s] = stream.Child(uint64(s))
			inj.scheduleOnset(s)
		}
	}
	if cfg.Brownouts() {
		inj.brStream = stream.Child(uint64(numSites))
		inj.scheduleBrownout()
	}
	return inj, nil
}

// Slowed reports whether site s is currently inside a fail-slow episode.
func (inj *SlowInjector) Slowed(s int) bool { return inj.slowed[s] }

// SlowMask returns the live slowness mask: element s is true while site
// s is degraded. Callers may hold the slice; it is updated in place at
// onset and recovery instants.
func (inj *SlowInjector) SlowMask() []bool { return inj.slowed }

// BrownoutActive reports whether a ring brownout is open now.
func (inj *SlowInjector) BrownoutActive() bool { return inj.brActive }

// Totals returns the episode ledger for the conservation auditor.
func (inj *SlowInjector) Totals() SlowTotals {
	degraded := 0
	for _, s := range inj.slowed {
		if s {
			degraded++
		}
	}
	return SlowTotals{
		Episodes:       inj.episodes,
		Recoveries:     inj.recoveries,
		Degraded:       degraded,
		Brownouts:      inj.brownouts,
		BrownoutEnds:   inj.brownoutEnds,
		BrownoutActive: inj.brActive,
	}
}

func (inj *SlowInjector) scheduleOnset(s int) {
	ev := inj.sched.After(inj.streams[s].Exp(inj.cfg.SlowMTTF), func() { inj.slowOn(s) })
	ev.SetKind(EventKindSlowOn)
}

func (inj *SlowInjector) slowOn(s int) {
	inj.slowed[s] = true
	inj.episodes++
	inj.slowSince[s] = inj.sched.Now()
	if inj.onSlow != nil {
		inj.onSlow(s)
	}
	ev := inj.sched.After(inj.streams[s].Exp(inj.cfg.SlowMTTR), func() { inj.slowOff(s) })
	ev.SetKind(EventKindSlowOff)
}

func (inj *SlowInjector) slowOff(s int) {
	now := inj.sched.Now()
	inj.slowed[s] = false
	inj.recoveries++
	if since := math.Max(inj.slowSince[s], inj.windowStart); now > since {
		inj.slowTime[s] += now - since
	}
	if inj.onRecover != nil {
		inj.onRecover(s)
	}
	inj.scheduleOnset(s)
}

func (inj *SlowInjector) scheduleBrownout() {
	ev := inj.sched.After(inj.brStream.Exp(inj.cfg.BrownoutMTTF), func() { inj.brownoutOn() })
	ev.SetKind(EventKindBrownoutOn)
}

func (inj *SlowInjector) brownoutOn() {
	inj.brActive = true
	inj.brownouts++
	inj.brSince = inj.sched.Now()
	if inj.onBrownout != nil {
		inj.onBrownout(true)
	}
	ev := inj.sched.After(inj.brStream.Exp(inj.cfg.BrownoutMTTR), func() { inj.brownoutOff() })
	ev.SetKind(EventKindBrownoutOff)
}

func (inj *SlowInjector) brownoutOff() {
	now := inj.sched.Now()
	inj.brActive = false
	inj.brownoutEnds++
	if since := math.Max(inj.brSince, inj.windowStart); now > since {
		inj.brTime += now - since
	}
	if inj.onBrownout != nil {
		inj.onBrownout(false)
	}
	inj.scheduleBrownout()
}

// ResetStats restarts the degraded-time accounting window at t (call at
// the begin-measurement instant, like every other stats window).
func (inj *SlowInjector) ResetStats(t float64) {
	inj.windowStart = t
	for s := range inj.slowTime {
		inj.slowTime[s] = 0
	}
	inj.brTime = 0
}

// DegradedTime returns site s's accumulated fail-slow time over the
// stats window ending at end, including a still-open episode.
func (inj *SlowInjector) DegradedTime(s int, end float64) float64 {
	d := inj.slowTime[s]
	if inj.slowed[s] {
		if since := math.Max(inj.slowSince[s], inj.windowStart); end > since {
			d += end - since
		}
	}
	return d
}

// BrownoutTime returns the accumulated ring-brownout time over the
// stats window ending at end, including a still-open episode.
func (inj *SlowInjector) BrownoutTime(end float64) float64 {
	d := inj.brTime
	if inj.brActive {
		if since := math.Max(inj.brSince, inj.windowStart); end > since {
			d += end - since
		}
	}
	return d
}
