package main

import (
	"math"
	"time"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/network"
	"dqalloc/internal/policy"
	"dqalloc/internal/queue"
	"dqalloc/internal/rng"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// selectSample is how often the traced policy times a Select call: every
// 64th, so the timer's cost stays far below the layer's own.
const selectSample = 64

// tracedPolicy wraps a built-in policy at the public seam
// system.Config.CustomPolicy. It counts Select calls and the load-view
// reads they make, and times every 64th Select as a span. It must not
// change a single decision: the traced run checks that a wrapped
// replication reproduces the plain one's TraceDigest and Results.
type tracedPolicy struct {
	inner policy.Policy
	view  countingView
	work  countingWorkView

	calls    uint64
	reads    uint64
	sampled  int
	selectNS time.Duration // summed over the sampled calls

	log    *spanLog // nil: count and time, record no spans
	parent int
}

// newTracedPolicy builds kind exactly as system.New does for an untuned
// run: policy.New(kind, numSites, rng.NewStream(seed).Child(2)).
func newTracedPolicy(kind policy.Kind, numSites int, seed uint64) (*tracedPolicy, error) {
	inner, err := policy.New(kind, numSites, rng.NewStream(seed).Child(2))
	if err != nil {
		return nil, err
	}
	p := &tracedPolicy{inner: inner}
	p.view.reads = &p.reads
	p.work.reads = &p.reads
	return p, nil
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Select(q *workload.Query, arrival int, env *policy.Env) int {
	p.calls++
	orig := env.View
	// The WORK cost function type-asserts the view to WorkView and
	// degrades to BNQ without it, so the counting view must offer
	// exactly the interfaces the real one does.
	if wv, ok := orig.(loadinfo.WorkView); ok {
		p.work.View, p.work.wv = orig, wv
		env.View = &p.work
	} else {
		p.view.View = orig
		env.View = &p.view
	}
	var site int
	if p.calls%selectSample == 0 {
		t0 := time.Now()
		site = p.inner.Select(q, arrival, env)
		t1 := time.Now()
		p.sampled++
		p.selectNS += t1.Sub(t0)
		if p.log != nil {
			p.log.add("policy.Select", t0, t1, p.parent, 0)
		}
	} else {
		site = p.inner.Select(q, arrival, env)
	}
	env.View = orig
	return site
}

// countingView forwards a load view, counting reads.
type countingView struct {
	loadinfo.View
	reads *uint64
}

func (v *countingView) NumQueries(s int) int    { *v.reads++; return v.View.NumQueries(s) }
func (v *countingView) NumIOQueries(s int) int  { *v.reads++; return v.View.NumIOQueries(s) }
func (v *countingView) NumCPUQueries(s int) int { *v.reads++; return v.View.NumCPUQueries(s) }

// countingWorkView is countingView for views that also carry work.
type countingWorkView struct {
	countingView
	wv loadinfo.WorkView
}

func (v *countingWorkView) CPUWork(s int) float64 { *v.reads++; return v.wv.CPUWork(s) }
func (v *countingWorkView) IOWork(s int) float64  { *v.reads++; return v.wv.IOWork(s) }

// The layer microbenchmarks below drive one public layer alone on a
// private scheduler, at the size and load the workload measured, and
// return host ns per unit of work. Each is the median of layerReps runs.
const (
	layerReps = 5
	layerJobs = 50_000
)

// medianRun returns the median of layerReps calls of f.
func medianRun(f func() float64) float64 {
	xs := make([]float64, layerReps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// churnNS times the event calendar: a rolling window of pending events in
// which every fired event schedules one replacement. ns per event.
func churnNS(window int) float64 {
	return medianRun(func() float64 {
		s := sim.New()
		st := rng.NewStream(1)
		const events = 200_000
		fired := 0
		var tick sim.Action
		tick = func() {
			fired++
			if fired+window <= events {
				s.After(st.Exp(1), tick)
			}
		}
		for i := 0; i < window; i++ {
			s.After(st.Exp(1), tick)
		}
		t0 := time.Now()
		s.Run()
		return float64(time.Since(t0)) / float64(fired)
	})
}

// stableUtil clamps a measured utilization into a range where an open
// single-server queue is stable and still sees work.
func stableUtil(u float64) float64 { return math.Min(math.Max(u, 0.05), 0.95) }

// serverNS times a single service center fed Poisson arrivals of
// exponential unit-mean jobs at utilization util: queue.NewPS when ps,
// queue.NewFCFS otherwise. ns per job.
func serverNS(ps bool, util float64) float64 {
	rate := stableUtil(util)
	return medianRun(func() float64 {
		s := sim.New()
		st := rng.NewStream(2)
		done := 0
		finish := func(int) { done++ }
		var enqueue func(int, float64)
		if ps {
			enqueue = queue.NewPS[int](s, finish).Enqueue
		} else {
			enqueue = queue.NewFCFS[int](s, finish).Enqueue
		}
		sent := 0
		var arrive sim.Action
		arrive = func() {
			enqueue(sent, st.Exp(1))
			sent++
			if sent < layerJobs {
				s.After(st.Exp(1/rate), arrive)
			}
		}
		s.After(st.Exp(1/rate), arrive)
		t0 := time.Now()
		s.Run()
		return float64(time.Since(t0)) / float64(done)
	})
}

// ringNS times the token ring: sites stations, unit-size messages between
// uniformly random distinct sites at subnet utilization util. ns per
// delivered message.
func ringNS(sites int, perByte, util float64) float64 {
	if sites < 2 || perByte <= 0 {
		return 0
	}
	rate := stableUtil(util) / perByte
	return medianRun(func() float64 {
		s := sim.New()
		st := rng.NewStream(3)
		r := network.NewRing(s, sites, perByte)
		delivered := 0
		onDeliver := func() { delivered++ }
		sent := 0
		var arrive sim.Action
		arrive = func() {
			from := st.Intn(sites)
			to := (from + 1 + st.Intn(sites-1)) % sites
			r.Send(network.Message{From: from, To: to, Size: 1, OnDeliver: onDeliver})
			sent++
			if sent < layerJobs {
				s.After(st.Exp(1/rate), arrive)
			}
		}
		s.After(st.Exp(1/rate), arrive)
		t0 := time.Now()
		s.Run()
		return float64(time.Since(t0)) / float64(delivered)
	})
}
