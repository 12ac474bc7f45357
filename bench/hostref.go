package main

import "time"

// The host the benchmark runs on is shared: over seconds to minutes its
// speed for this kind of work swings by 20–40% with what other tenants
// run. A time measured alone would mostly measure that. So every timed
// replication, set-up batch or serve op is paired with a fixed reference
// task of the same kind run just before and after it: a slice of a
// reference simulation, or a cold start of or requests to the reference
// server bench/refserve. Each end-to-end time is reported scaled to a
// host on which the reference takes its nominal time:
//
//	reported = measured × nominal / reference
//
// The references are the benchmark's own code and never change, so a
// change to the program moves the reported time by exactly the share it
// moves the measured one. The tracking is close but not exact: across
// runs on the defining host, simulator op time grew by 0.85–0.88% for
// each 1% the reference slowed. The raw times are printed as raw_*
// diagnostics.
const (
	// refSimNominal is the reference simulation slice's time on the
	// 2-vCPU Xeon VM the benchmark was defined on, at rest.
	refSimNominal = 20 * time.Millisecond
	// refServeNominal is a decide→report pair against the reference
	// server (bench/refserve) on the same VM, at rest.
	refServeNominal = 100 * time.Microsecond
	// refStartNominal is a cold start of the reference server on the same
	// VM, at rest.
	refStartNominal = 4 * time.Millisecond
)

// Reference simulation size: pending events in the calendar, as many as
// the paper system's terminals and sites keep; events per slice; and
// records allocated per slice, in lists of refSimList.
const (
	refSimPending = 1200
	refSimSteps   = 150_000
	refSimAllocs  = 250_000
	refSimList    = 5_000
)

// refSimSink keeps the reference's results live.
var refSimSink float64

// refRecord is one record of the reference's allocation phase.
type refRecord struct {
	next *refRecord
	v    [6]float64
}

// refSim runs one slice of the reference simulation and returns its wall
// time. The slice has two phases, because the simulator's time goes to
// both: a binary-heap event calendar in which each fired event schedules
// one successor, then short-lived allocations that keep the garbage
// collector busy. Over a seven-minute trace on the defining host, paper
// replication times scaled by both phases spread half as much across
// ten-second windows as scaled by the calendar alone.
func refSim() time.Duration {
	t0 := time.Now()
	refSimCalendar()
	refSimGarbage()
	return time.Since(t0)
}

func refSimCalendar() {
	h := make([]float64, 0, refSimPending)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 { // xorshift64, uniform in [0, 1)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	push := func(v float64) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() float64 {
		v := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		return v
	}
	for i := 0; i < refSimPending; i++ {
		push(next())
	}
	now := 0.0
	for i := 0; i < refSimSteps; i++ {
		now = pop()
		push(now + next())
	}
	refSimSink += now
}

func refSimGarbage() {
	var head *refRecord
	for i := 0; i < refSimAllocs; i++ {
		head = &refRecord{next: head}
		head.v[0] = float64(i)
		if i%refSimList == refSimList-1 {
			refSimSink += head.v[0]
			head = nil
		}
	}
}

// scaled returns t in seconds scaled to the reference host: t × nominal
// / ref.
func scaled(t, ref, nominal time.Duration) float64 {
	return t.Seconds() * nominal.Seconds() / ref.Seconds()
}
