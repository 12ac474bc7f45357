// Package queue implements the service centers of the paper's DB-site
// model (Section 2): first-come-first-served single servers (the disks),
// an event-driven processor-sharing server (the CPU), and a multi-disk
// array with a pluggable disk-selection rule. Servers are generic over the
// job type so that the same machinery serves queries, messages, and test
// payloads.
package queue

import (
	"dqalloc/internal/sim"
	"dqalloc/internal/stats"
)

// Event kinds tagged onto this package's scheduler events for the trace
// digest (see sim.Event.Kind).
const (
	// EventKindFCFS marks an FCFS server's service-completion event.
	EventKindFCFS byte = 0x11
	// EventKindPS marks a PS server's next-departure event.
	EventKindPS byte = 0x12
)

// noCopy makes go vet's copylocks check report a copy of the struct
// that embeds it. Servers bind their event actions to their own
// address, so a copy would leave those actions driving the original.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// FCFS is a single server with an unbounded FIFO queue. The caller samples
// the service time and passes it at enqueue; the server invokes the
// completion callback when the job's service finishes.
type FCFS[T any] struct {
	_     noCopy
	sched *sim.Scheduler
	done  func(T)
	// finishFn is the service-completion action, bound once at
	// construction so startNext schedules it without allocating a
	// closure per service.
	finishFn sim.Action

	// queue[head:] are the jobs present, the one in service first. A
	// completion advances head instead of shifting the queue; Enqueue
	// reclaims the dead prefix queue[:head] (see compact).
	queue  []fcfsEntry[T]
	head   int
	busy   bool
	next   sim.Handle // pending service-completion event
	util   stats.TimeWeighted
	qlen   stats.TimeWeighted
	served uint64
	// rate is the server's speed. It stays exactly 1 unless SetRate is
	// called (fail-slow episodes), so the no-fault arithmetic is
	// bit-identical (y/1.0 == y). remaining and rateSince track the
	// in-service job's unfinished work so a mid-service rate change
	// stretches exactly the work not yet done.
	rate      float64
	remaining float64
	rateSince float64
}

type fcfsEntry[T any] struct {
	job     T
	service float64
}

// NewFCFS returns an idle FCFS server. done is called (from within the
// simulation's event loop) each time a job completes service.
func NewFCFS[T any](sched *sim.Scheduler, done func(T)) *FCFS[T] {
	f := new(FCFS[T])
	f.Init(sched, done)
	return f
}

// Init makes f an idle FCFS server in place, as NewFCFS does, so an
// owner can hold the server by value. f binds its completion action to
// its own address: it must not be copied after Init.
func (f *FCFS[T]) Init(sched *sim.Scheduler, done func(T)) {
	if done == nil {
		panic("queue: nil completion callback")
	}
	*f = FCFS[T]{sched: sched, done: done, rate: 1}
	f.finishFn = f.finish
}

// Rate returns the server's current speed (1 unless degraded).
func (f *FCFS[T]) Rate() float64 { return f.rate }

// SetRate changes the server's speed: the in-service job's completion is
// re-timed so work already done at the old rate counts and only the
// remaining work stretches (or shrinks). This is the fail-slow hook — a
// rate of 1/k stretches service times by k. rate must be positive.
func (f *FCFS[T]) SetRate(rate float64) {
	if !(rate > 0) {
		panic("queue: non-positive FCFS rate")
	}
	if rate == f.rate {
		return
	}
	if f.busy {
		now := f.sched.Now()
		f.remaining -= (now - f.rateSince) * f.rate
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.rateSince = now
		f.sched.Cancel(f.next)
		f.next = f.sched.After(f.remaining/rate, f.finishFn)
		f.next.SetKind(EventKindFCFS)
	}
	f.rate = rate
}

// Enqueue adds a job requiring the given service time. Service starts
// immediately if the server is idle.
func (f *FCFS[T]) Enqueue(job T, service float64) {
	if service < 0 {
		panic("queue: negative service time")
	}
	now := f.sched.Now()
	f.compact()
	f.queue = append(f.queue, fcfsEntry[T]{job: job, service: service})
	f.qlen.Set(now, float64(f.QueueLen()))
	if !f.busy {
		f.startNext()
	}
}

// QueueLen returns the number of jobs present, including the one in
// service.
func (f *FCFS[T]) QueueLen() int { return len(f.queue) - f.head }

// Busy reports whether a job is in service.
func (f *FCFS[T]) Busy() bool { return f.busy }

// Served returns the number of completed jobs.
func (f *FCFS[T]) Served() uint64 { return f.served }

// Utilization returns the busy fraction over the stats window ending at t.
func (f *FCFS[T]) Utilization(t float64) float64 { return f.util.MeanAt(t) }

// MeanQueueLen returns the time-average number of jobs present over the
// stats window ending at t.
func (f *FCFS[T]) MeanQueueLen(t float64) float64 { return f.qlen.MeanAt(t) }

// ResetStats restarts the utilization and queue-length windows at t,
// discarding the warmup transient.
func (f *FCFS[T]) ResetStats(t float64) {
	f.util.Reset(t)
	f.qlen.Reset(t)
	f.served = 0
}

// Drain removes every job — queued or in service — without completing
// it, cancels the pending service-completion event, and returns the jobs
// in queue order (the one in service first). The utilization and
// queue-length windows record the server going idle. This models the
// server's site crashing: the jobs are lost, and recovering them is the
// caller's concern.
func (f *FCFS[T]) Drain() []T {
	now := f.sched.Now()
	f.sched.Cancel(f.next)
	f.next = sim.Handle{}
	live := f.queue[f.head:]
	out := make([]T, len(live))
	for i := range live {
		out[i] = live[i].job
	}
	clear(live)
	f.queue = f.queue[:0]
	f.head = 0
	f.busy = false
	f.qlen.Set(now, 0)
	f.util.Set(now, 0)
	return out
}

// RemoveFunc withdraws the first job matching the predicate — queued or
// in service — without completing it, and reports whether one matched.
// Removing the job in service cancels its pending completion event and
// starts the next job fresh (the elapsed service is forfeited, matching
// Drain's crash semantics); removing a queued job just closes the gap.
// This is the deadline-abort / hedge-cancellation primitive.
func (f *FCFS[T]) RemoveFunc(match func(T) bool) (T, bool) {
	var zero T
	for i := f.head; i < len(f.queue); i++ {
		if !match(f.queue[i].job) {
			continue
		}
		job := f.queue[i].job
		now := f.sched.Now()
		inService := i == f.head && f.busy
		if inService {
			f.sched.Cancel(f.next)
			f.next = sim.Handle{}
			f.popHead()
		} else {
			copy(f.queue[i:], f.queue[i+1:])
			f.queue[len(f.queue)-1] = fcfsEntry[T]{}
			f.queue = f.queue[:len(f.queue)-1]
		}
		f.qlen.Set(now, float64(f.QueueLen()))
		if inService {
			if f.QueueLen() > 0 {
				f.startNext()
			} else {
				f.busy = false
				f.util.Set(now, 0)
			}
		}
		return job, true
	}
	return zero, false
}

func (f *FCFS[T]) startNext() {
	now := f.sched.Now()
	f.busy = true
	f.util.Set(now, 1)
	head := f.queue[f.head]
	f.remaining = head.service
	f.rateSince = now
	f.next = f.sched.After(head.service/f.rate, f.finishFn)
	f.next.SetKind(EventKindFCFS)
}

func (f *FCFS[T]) finish() {
	now := f.sched.Now()
	f.next = sim.Handle{}
	head := f.popHead()
	f.qlen.Set(now, float64(f.QueueLen()))
	f.served++
	if f.QueueLen() > 0 {
		f.startNext()
	} else {
		f.busy = false
		f.util.Set(now, 0)
	}
	f.done(head.job)
}

// popHead removes and returns the job at the front of the queue. The
// vacated slot is cleared so the queue retains no finished job, and an
// emptied queue restarts at the front of its slice.
func (f *FCFS[T]) popHead() fcfsEntry[T] {
	e := f.queue[f.head]
	f.queue[f.head] = fcfsEntry[T]{}
	if f.head++; f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	return e
}

// compact makes room for an arrival in a full slice whose prefix is at
// least half dead by moving the live jobs to its front; otherwise append
// grows the slice. Each move of k jobs follows at least k completions,
// so a completion costs O(1) amortized, and the slice stays within a
// small factor of the peak queue length.
func (f *FCFS[T]) compact() {
	n := len(f.queue)
	if n < cap(f.queue) || 2*f.head < n {
		return
	}
	live := copy(f.queue, f.queue[f.head:])
	clear(f.queue[live:])
	f.queue = f.queue[:live]
	f.head = 0
}
