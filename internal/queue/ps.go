package queue

import (
	"math"

	"dqalloc/internal/sim"
	"dqalloc/internal/stats"
)

// psEpsilon absorbs floating-point residue when deciding that a job's
// remaining work has reached zero.
const psEpsilon = 1e-9

// PS is an egalitarian processor-sharing server: with n jobs present, each
// receives service at rate 1/n. This models the paper's CPU (Section 2:
// "the CPU is modeled as a PS server").
//
// The implementation is event-driven: whenever the active set changes, the
// remaining work of every job is advanced and the next departure is
// rescheduled. All departures that become due simultaneously are delivered
// in arrival order.
type PS[T any] struct {
	_     noCopy
	sched *sim.Scheduler
	done  func(T)
	// departFn is the next-departure action, bound once at construction
	// so reschedule allocates no closure per departure event.
	departFn sim.Action

	jobs       []psJob[T]
	fin        []T // scratch for simultaneous departures, reused across events
	lastUpdate float64
	next       sim.Handle
	util       stats.TimeWeighted
	load       stats.TimeWeighted
	served     uint64
	// rate is the server's speed: work is consumed at rate/n per job.
	// Stays exactly 1 unless SetRate is called (fail-slow episodes), so
	// the no-fault arithmetic is bit-identical (x·1.0 == x, y/1.0 == y).
	rate float64
}

type psJob[T any] struct {
	job       T
	remaining float64
}

// NewPS returns an idle processor-sharing server. done is called each time
// a job's service requirement is exhausted.
func NewPS[T any](sched *sim.Scheduler, done func(T)) *PS[T] {
	p := new(PS[T])
	p.Init(sched, done)
	return p
}

// Init makes p an idle processor-sharing server in place, as NewPS does,
// so an owner can hold the server by value. p binds its departure
// action to its own address: it must not be copied after Init.
func (p *PS[T]) Init(sched *sim.Scheduler, done func(T)) {
	if done == nil {
		panic("queue: nil completion callback")
	}
	*p = PS[T]{sched: sched, done: done, rate: 1}
	p.departFn = p.depart
}

// Rate returns the server's current speed (1 unless degraded).
func (p *PS[T]) Rate() float64 { return p.rate }

// SetRate changes the server's speed: elapsed sharing is applied at the
// old rate, then the next departure is rescheduled at the new one. This
// is the fail-slow hook — a rate of 1/f stretches all in-progress and
// future work by f. rate must be positive.
func (p *PS[T]) SetRate(rate float64) {
	if !(rate > 0) {
		panic("queue: non-positive PS rate")
	}
	if rate == p.rate {
		return
	}
	p.advance()
	p.rate = rate
	p.reschedule()
}

// Enqueue adds a job with the given total service requirement. The job
// immediately begins sharing the processor.
func (p *PS[T]) Enqueue(job T, service float64) {
	if service < 0 {
		panic("queue: negative service time")
	}
	p.advance()
	p.jobs = append(p.jobs, psJob[T]{job: job, remaining: service})
	now := p.sched.Now()
	p.load.Set(now, float64(len(p.jobs)))
	p.util.Set(now, 1)
	p.reschedule()
}

// QueueLen returns the number of jobs sharing the processor.
func (p *PS[T]) QueueLen() int { return len(p.jobs) }

// Served returns the number of completed jobs.
func (p *PS[T]) Served() uint64 { return p.served }

// Utilization returns the fraction of time the processor was busy over
// the stats window ending at t.
func (p *PS[T]) Utilization(t float64) float64 { return p.util.MeanAt(t) }

// MeanLoad returns the time-average number of jobs present over the stats
// window ending at t.
func (p *PS[T]) MeanLoad(t float64) float64 { return p.load.MeanAt(t) }

// ResetStats restarts the measurement windows at t.
func (p *PS[T]) ResetStats(t float64) {
	p.util.Reset(t)
	p.load.Reset(t)
	p.served = 0
}

// Drain removes every job sharing the processor without completing it,
// cancels the pending departure event, and returns the jobs in arrival
// order. The utilization and load windows record the processor going
// idle. This models the processor's site crashing: the jobs are lost,
// and recovering them is the caller's concern.
func (p *PS[T]) Drain() []T {
	p.advance()
	now := p.sched.Now()
	p.sched.Cancel(p.next)
	p.next = sim.Handle{}
	out := make([]T, len(p.jobs))
	var zero psJob[T]
	for i := range p.jobs {
		out[i] = p.jobs[i].job
		p.jobs[i] = zero
	}
	p.jobs = p.jobs[:0]
	p.load.Set(now, 0)
	p.util.Set(now, 0)
	return out
}

// RemoveFunc withdraws the first job matching the predicate without
// completing it, and reports whether one matched. Elapsed sharing is
// applied to every job first, then the next departure is rescheduled
// over the survivors — who from this instant share the processor one
// way fewer. This is the deadline-abort / hedge-cancellation primitive.
func (p *PS[T]) RemoveFunc(match func(T) bool) (T, bool) {
	var zero T
	for i := range p.jobs {
		if !match(p.jobs[i].job) {
			continue
		}
		p.advance()
		job := p.jobs[i].job
		copy(p.jobs[i:], p.jobs[i+1:])
		p.jobs[len(p.jobs)-1] = psJob[T]{}
		p.jobs = p.jobs[:len(p.jobs)-1]
		now := p.sched.Now()
		p.load.Set(now, float64(len(p.jobs)))
		if len(p.jobs) == 0 {
			p.util.Set(now, 0)
		}
		p.reschedule()
		return job, true
	}
	return zero, false
}

// advance applies elapsed processor sharing to every active job.
func (p *PS[T]) advance() {
	now := p.sched.Now()
	n := len(p.jobs)
	if n > 0 && now > p.lastUpdate {
		each := (now - p.lastUpdate) * p.rate / float64(n)
		for i := range p.jobs {
			p.jobs[i].remaining -= each
			if p.jobs[i].remaining < 0 {
				p.jobs[i].remaining = 0
			}
		}
	}
	p.lastUpdate = now
}

// reschedule cancels any pending departure event and schedules the next
// one based on the smallest remaining requirement.
func (p *PS[T]) reschedule() {
	p.sched.Cancel(p.next)
	p.next = sim.Handle{}
	if len(p.jobs) == 0 {
		return
	}
	minRemaining := math.Inf(1)
	for i := range p.jobs {
		if p.jobs[i].remaining < minRemaining {
			minRemaining = p.jobs[i].remaining
		}
	}
	delay := minRemaining * float64(len(p.jobs)) / p.rate
	if delay < 0 {
		delay = 0
	}
	p.next = p.sched.After(delay, p.departFn)
	p.next.SetKind(EventKindPS)
}

// depart advances sharing and releases every job whose requirement is now
// exhausted, preserving arrival order among simultaneous departures.
func (p *PS[T]) depart() {
	p.next = sim.Handle{}
	p.advance()
	now := p.sched.Now()

	finished := p.fin[:0]
	kept := p.jobs[:0]
	for _, j := range p.jobs {
		if j.remaining <= psEpsilon {
			finished = append(finished, j.job)
		} else {
			kept = append(kept, j)
		}
	}
	var zero psJob[T]
	for i := len(kept); i < len(p.jobs); i++ {
		p.jobs[i] = zero
	}
	p.jobs = kept

	p.load.Set(now, float64(len(p.jobs)))
	if len(p.jobs) == 0 {
		p.util.Set(now, 0)
	}
	p.reschedule()
	for _, job := range finished {
		p.served++
		p.done(job)
	}
	// Release payload references before the next event reuses the scratch.
	var zeroT T
	for i := range finished {
		finished[i] = zeroT
	}
	p.fin = finished[:0]
}
