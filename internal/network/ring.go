// Package network models the paper's communications subnetwork (Section
// 2): "a simple token-ring style local network" with a single outgoing
// message queue per site, round-robin polling for send requests, a
// transmission cost linear in message length, and negligible polling
// overhead.
package network

import (
	"dqalloc/internal/sim"
	"dqalloc/internal/stats"
)

// Message is one transfer over the ring: a query descriptor being shipped
// to a remote execution site, or a result page set returning home.
type Message struct {
	From int     // sending site
	To   int     // receiving site
	Size float64 // message length in bytes

	// OnDeliver runs at the instant the transmission completes. Exactly
	// one of OnDeliver and Handle must be set.
	OnDeliver func()
	// OnDrop runs instead of OnDeliver when the lossy-network extension
	// (SetFault) drops the message. nil means the drop is only counted —
	// acceptable for messages whose loss nobody must recover from.
	OnDrop func()

	// Handle, when set, replaces OnDeliver and OnDrop: it runs with Arg
	// and dropped false on delivery, or dropped true on a drop. A sender
	// binds its handler once and passes the carried record in Arg, so
	// sending allocates no closure per message.
	Handle func(arg any, dropped bool)
	Arg    any

	// Kind tags the transmission-complete event in the trace digest; the
	// zero value means EventKindTransmit (an ordinary query/result
	// message). The replica manager stamps fragment-copy shipments with
	// its own kind so traces distinguish data movement from queries.
	Kind byte

	enqueuedAt float64
}

// Ring is the polled token-ring medium shared by all sites. Exactly one
// message is in flight at a time; after each transmission the ring resumes
// polling at the next site, giving sites round-robin access.
type Ring struct {
	sched   *sim.Scheduler
	perByte float64

	queues  [][]Message
	pending int
	cursor  int // next site to poll
	busy    bool
	// inflight is the single message being transmitted (the ring carries
	// exactly one at a time), and completeFn/dropFn are its retirement
	// actions, bound once at construction so transmit allocates no
	// closure per transmission.
	inflight   Message
	completeFn sim.Action
	dropFn     sim.Action
	util       stats.TimeWeighted
	qlen       stats.TimeWeighted
	delivered  uint64
	dropped    uint64
	bytes      float64
	waits      stats.Welford // ring queueing delay per message (excl. transmission)

	// fault, when non-nil, decides each transmission's fate (lossy
	// network extension). It is consulted exactly once per transmission,
	// in transmission order, keeping runs deterministic.
	fault func() (drop bool, delay float64)

	// stretch, when non-nil, returns the current transmission-time
	// multiplier (brownout extension). Consulted exactly once per
	// transmission, at its start; a message already in flight when a
	// brownout opens or closes keeps its original timing.
	stretch func() float64

	// sent, totalDelivered and totalDropped are lifetime counters (never
	// reset by ResetStats) backing the message-conservation invariant
	// sent == totalDelivered + totalDropped + pending audited by
	// internal/check.
	sent           uint64
	totalDelivered uint64
	totalDropped   uint64
}

// EventKindTransmit tags the ring's transmission-complete events in the
// scheduler's trace digest.
const EventKindTransmit byte = 0x21

// NewRing builds a ring connecting numSites sites, with a transmission
// time of perByte time units per byte of message length.
func NewRing(sched *sim.Scheduler, numSites int, perByte float64) *Ring {
	if numSites <= 0 {
		panic("network: ring needs at least one site")
	}
	if perByte < 0 {
		panic("network: negative per-byte cost")
	}
	r := &Ring{
		sched:   sched,
		perByte: perByte,
		queues:  make([][]Message, numSites),
	}
	r.completeFn = r.complete
	r.dropFn = r.drop
	return r
}

// TransmitTime returns the time the ring needs to transmit size bytes,
// excluding any queueing.
func (r *Ring) TransmitTime(size float64) float64 { return size * r.perByte }

// SetFault installs a per-message fault model: fn is consulted once per
// transmission, in transmission order. drop suppresses delivery — the
// message's OnDrop callback (if any) runs instead of OnDeliver — and
// delay extends the transmission's occupancy of the ring, modeling
// link-layer retransmissions and congestion. The paper assumes a
// lossless subnet; this hook is the fault-injection extension. Install
// before the first Send; pass nil to restore reliable delivery.
func (r *Ring) SetFault(fn func() (drop bool, delay float64)) { r.fault = fn }

// SetStretch installs a transmission-time multiplier consulted once at
// each transmission's start (brownout extension): a factor of k makes
// every transmission beginning while it returns k take k× as long,
// modeling a network-wide gray failure. In-flight messages are
// unaffected. Pass nil to restore nominal timing.
func (r *Ring) SetStretch(fn func() float64) { r.stretch = fn }

// Send places a message in the sender's outgoing queue. Delivery happens
// after the ring polls the sender and transmits the message.
func (r *Ring) Send(m Message) {
	if (m.OnDeliver == nil) == (m.Handle == nil) {
		panic("network: message needs exactly one of OnDeliver and Handle")
	}
	if m.From < 0 || m.From >= len(r.queues) || m.To < 0 || m.To >= len(r.queues) {
		panic("network: message endpoint out of range")
	}
	now := r.sched.Now()
	m.enqueuedAt = now
	r.queues[m.From] = append(r.queues[m.From], m)
	r.pending++
	r.sent++
	r.qlen.Set(now, float64(r.pending))
	if !r.busy {
		r.poll()
	}
}

// Pending returns the number of messages waiting or in flight.
func (r *Ring) Pending() int { return r.pending }

// Delivered returns the number of completed transmissions over the stats
// window (reset by ResetStats).
func (r *Ring) Delivered() uint64 { return r.delivered }

// Dropped returns the number of messages the fault model dropped over
// the stats window (reset by ResetStats).
func (r *Ring) Dropped() uint64 { return r.dropped }

// Sent returns the total messages handed to the ring since construction.
func (r *Ring) Sent() uint64 { return r.sent }

// TotalDelivered returns the total completed transmissions since
// construction. At every instant
// Sent() == TotalDelivered() + TotalDropped() + Pending().
func (r *Ring) TotalDelivered() uint64 { return r.totalDelivered }

// TotalDropped returns the total messages dropped by the fault model
// since construction (zero on a reliable ring).
func (r *Ring) TotalDropped() uint64 { return r.totalDropped }

// BytesCarried returns the total bytes transmitted.
func (r *Ring) BytesCarried() float64 { return r.bytes }

// Utilization returns the fraction of time the ring was transmitting over
// the stats window ending at t. This is the paper's "subnet utilization"
// (Table 11).
func (r *Ring) Utilization(t float64) float64 { return r.util.MeanAt(t) }

// MeanPending returns the time-average number of queued messages over the
// stats window ending at t.
func (r *Ring) MeanPending(t float64) float64 { return r.qlen.MeanAt(t) }

// MeanWait returns the mean ring queueing delay per delivered message,
// excluding transmission time.
func (r *Ring) MeanWait() float64 { return r.waits.Mean() }

// ResetStats restarts the measurement windows at t.
func (r *Ring) ResetStats(t float64) {
	r.util.Reset(t)
	r.qlen.Reset(t)
	r.delivered = 0
	r.dropped = 0
	r.bytes = 0
	r.waits.Reset()
}

// poll scans sites round-robin from the cursor and transmits the first
// pending message found. Polling overhead is negligible per the paper, so
// the scan itself takes zero simulated time.
func (r *Ring) poll() {
	if r.pending == 0 {
		return
	}
	n := len(r.queues)
	// Wrap with a compare rather than a % per station: poll runs on
	// every transmission.
	for i, s := 0, r.cursor; i < n; i, s = i+1, s+1 {
		if s == n {
			s = 0
		}
		if len(r.queues[s]) == 0 {
			continue
		}
		m := r.queues[s][0]
		copy(r.queues[s], r.queues[s][1:])
		r.queues[s][len(r.queues[s])-1] = Message{}
		r.queues[s] = r.queues[s][:len(r.queues[s])-1]
		if r.cursor = s + 1; r.cursor == n {
			r.cursor = 0
		}
		r.transmit(m)
		return
	}
}

func (r *Ring) transmit(m Message) {
	now := r.sched.Now()
	r.busy = true
	r.inflight = m
	r.util.Set(now, 1)
	r.waits.Add(now - m.enqueuedAt)
	hold := r.TransmitTime(m.Size)
	if r.stretch != nil {
		hold *= r.stretch()
	}
	dropped := false
	if r.fault != nil {
		var extra float64
		dropped, extra = r.fault()
		hold += extra
	}
	var ev sim.Handle
	if dropped {
		ev = r.sched.After(hold, r.dropFn)
	} else {
		ev = r.sched.After(hold, r.completeFn)
	}
	if m.Kind != 0 {
		ev.SetKind(m.Kind)
	} else {
		ev.SetKind(EventKindTransmit)
	}
}

func (r *Ring) complete() {
	// Take the in-flight message before polling: poll may immediately
	// start the next transmission, overwriting the slot.
	m := r.inflight
	r.inflight = Message{}
	now := r.sched.Now()
	r.pending--
	r.qlen.Set(now, float64(r.pending))
	r.delivered++
	r.totalDelivered++
	r.bytes += m.Size
	r.busy = false
	r.util.Set(now, 0)
	// Resume polling before delivering so that a delivery action that
	// immediately sends again observes a consistent ring state.
	r.poll()
	if m.Handle != nil {
		m.Handle(m.Arg, false)
		return
	}
	m.OnDeliver()
}

// drop retires a message the fault model discarded: the transmission
// occupied the ring but the receiver never got the payload.
func (r *Ring) drop() {
	m := r.inflight
	r.inflight = Message{}
	now := r.sched.Now()
	r.pending--
	r.qlen.Set(now, float64(r.pending))
	r.dropped++
	r.totalDropped++
	r.busy = false
	r.util.Set(now, 0)
	r.poll()
	switch {
	case m.Handle != nil:
		m.Handle(m.Arg, true)
	case m.OnDrop != nil:
		m.OnDrop()
	}
}
