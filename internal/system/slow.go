package system

import (
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file wires the fail-slow (gray failure) subsystem into the system
// model: the injector's episodes throttle a site's CPU and disks in
// place while the site keeps running — and keeps broadcasting load
// reports — and ring brownouts stretch transmission times. On top sits
// the defense layer: a suspicion detector scoring each site's realized
// slowdown against the population so the allocation policies route
// around gray sites, plus a straggler-aware relaxation of the hedge gate
// so a query stuck at a suspect site is raced by a clone elsewhere.
//
// Everything here is gated on s.slow / s.susp being non-nil; a run with
// both knobs disabled schedules no extra events, draws no extra random
// numbers, and is bit-identical to a build without the subsystem.

// slowRuntime is the per-run state of the fail-slow injection.
type slowRuntime struct {
	cfg fault.Config
	inj *fault.SlowInjector

	// hedgeWinsVsSlow counts hedge races the clone won while the
	// primary's execution site was inside a fail-slow episode — the
	// hedges that demonstrably beat a gray failure.
	hedgeWinsVsSlow uint64
}

// suspicionRuntime is the per-run state of the gray-failure detector.
type suspicionRuntime struct {
	det *loadinfo.Suspicion

	// suspectTransfers counts measured allocations that moved a query
	// off its suspect home site — the detector's routing interventions.
	suspectTransfers uint64
}

// setupSlow builds the fail-slow runtime during New. stream must be the
// root's dedicated fail-slow child (Child 13), so crash-only runs and
// no-fault runs never touch it.
func (s *System) setupSlow(stream *rng.Stream) error {
	sr := &slowRuntime{cfg: s.cfg.Fault}
	var onSlow, onRecover func(int)
	if s.cfg.Fault.SlowFaults() {
		// A degradation factor of k throttles the service rate to 1/k:
		// the in-service work already done keeps its timing and only the
		// remainder stretches (queue.SetRate semantics).
		cpuRate := 1 / s.cfg.Fault.SlowCPUFactor()
		diskRate := 1 / s.cfg.Fault.SlowDiskMult()
		onSlow = func(site int) {
			s.sites[site].SetCPURate(cpuRate)
			s.sites[site].SetDiskRate(diskRate)
		}
		onRecover = func(site int) {
			s.sites[site].SetCPURate(1)
			s.sites[site].SetDiskRate(1)
		}
	}
	var onBrownout func(bool)
	if s.cfg.Fault.Brownouts() {
		factor := s.cfg.Fault.BrownoutFactor
		stretch := func() float64 { return factor }
		// The stretch hook is only installed while a brownout is open, so
		// nominal transmissions never even multiply by 1.
		onBrownout = func(active bool) {
			if active {
				s.ring.SetStretch(stretch)
			} else {
				s.ring.SetStretch(nil)
			}
		}
	}
	inj, err := fault.NewSlowInjector(s.sched, s.cfg.NumSites, s.cfg.Fault, stream, onSlow, onRecover, onBrownout)
	if err != nil {
		return err
	}
	sr.inj = inj
	s.slow = sr
	return nil
}

// setupSuspicion builds the gray-failure detector during New and hands
// the policies its live mask and penalty hook. The detector draws no
// random numbers and schedules no events — it only changes decisions —
// so it composes with common-random-numbers comparisons.
func (s *System) setupSuspicion() error {
	det, err := loadinfo.NewSuspicion(s.cfg.NumSites, s.cfg.Suspect)
	if err != nil {
		return err
	}
	s.susp = &suspicionRuntime{det: det}
	s.env.Suspect = det.Mask()
	s.env.Penalty = det.Penalty
	return nil
}

// suspected reports whether the detector currently suspects site (always
// false without a detector).
func (s *System) suspected(site int) bool {
	return s.susp != nil && s.susp.det.Suspected(site)
}

// suspectObserve feeds the detector one completed attempt's realized
// slowdown: wall response over nominal execution demand. The sites'
// service draws are nominal — a fail-slow episode delays completions
// without touching the sampled demands — so the ratio is ≈ 1 + queueing
// at a healthy site and ≈ the degradation factor + queueing at a gray
// one, which is exactly the contrast the detector thresholds.
func (s *System) suspectObserve(q *workload.Query) {
	if s.susp == nil {
		return
	}
	if es := q.ExecService(); es > 0 {
		now := s.sched.Now()
		s.susp.det.Observe(q.Exec, (now-q.SubmitTime)/es, now)
	}
}
