// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a future-event list ordered by simulated time.
// Events scheduled for the same instant fire in FIFO order (by scheduling
// sequence number), which makes every simulation run fully deterministic
// for a given seed and configuration. This kernel is the reproduction's
// substitute for the DISS simulation-language runtime used by the paper.
//
// Two future-event-list implementations sit behind the same API: an
// adaptive calendar queue (the default — amortized O(1) per operation,
// see calendar.go and DESIGN.md §12) and the original binary heap, kept
// as a config-selectable reference (Impl Heap) that the differential
// tests and fuzz target cross-check the calendar against. Both fire
// events in the identical (time, seq) order, so trace digests are
// bit-identical whichever is selected.
//
// Event records are pooled: once an event fires or is cancelled its
// record returns to a per-scheduler free list and is reused by the next
// At/After, so the steady-state hot path allocates nothing. Fresh
// records are carved from slabs — contiguous arrays of Events — so a
// scheduler's working set stays cache-dense instead of scattering one
// heap object per event. Handles are generation-counted — a handle to a
// retired (and possibly reused) event is detected as stale rather than
// acting on the wrong event. See DESIGN.md §10 for the performance
// model.
package sim

import (
	"fmt"
	"math"
)

// Action is the body of an event. It runs exactly once, at the event's
// scheduled simulated time.
type Action func()

// Event is one scheduled action's record. Model code never holds an
// *Event across events — records are pooled and reused — but fire
// observers receive the live record of the event being fired, whose
// fields are valid for the duration of the observer call.
type Event struct {
	time float64
	seq  uint64
	// index locates the pending event inside its future-event list — a
	// heap position for Impl Heap, a slot number (or overflow-heap
	// position offset by the slot count) for Impl Calendar — and is -1
	// once the event fires or is cancelled.
	index int32
	// next and prev thread the event through its calendar bucket's
	// sorted list; nil outside a bucket.
	next, prev *Event

	// Kind is a free-form discriminator mixed into the trace digest (and
	// visible to fire observers) so that digests distinguish event types,
	// not just their (time, seq) coordinates. The scheduler assigns no
	// meaning to it; model packages tag their events with their own
	// constants via Handle.SetKind right after At or After returns. Zero
	// is the untagged default.
	//
	// Registry of kind bytes across the model packages (high nibble =
	// subsystem, kept here so new tags don't collide). 0x22 and 0x23 are
	// ring message kinds (network.Message.Kind): the ring tags a
	// transmission with its message's kind in place of 0x21.
	//
	//	0x11 queue:    FCFS departure
	//	0x12 queue:    processor-sharing completion
	//	0x21 network:  ring transmission
	//	0x22 system:   fragment-copy shipment over the ring (replication.go)
	//	0x23 system:   operator intermediate result over the ring (parallel.go)
	//	0x31 loadinfo: load broadcast tick
	//	0x32 loadinfo: delayed status-message application
	//	0x41 system:   terminal think completion
	//	0x42 system:   begin-measurement mark
	//	0x43 system:   failover watchdog timeout
	//	0x44 system:   query retry after loss
	//	0x45 system:   admission-control deferral
	//	0x46 system:   deadline expiry
	//	0x47 system:   hedge launch timer
	//	0x51 fault:    site crash
	//	0x52 fault:    site repair
	//	0x53 fault:    fail-slow episode onset (slow.go)
	//	0x54 fault:    fail-slow episode recovery (slow.go)
	//	0x55 fault:    ring brownout onset (slow.go)
	//	0x56 fault:    ring brownout recovery (slow.go)
	//	0x61 arrival:  open arrival
	//	0x62 arrival:  MMPP phase switch
	//	0x71 system:   replication add/drop scan tick (replication.go)
	//	0x72 system:   replica rebuild start timer (replication.go)
	Kind byte

	// gen is bumped every time the record is retired to the free list;
	// a Handle carrying an older generation is stale and inert.
	gen uint32

	action Action
}

// Time returns the simulated time at which the event is scheduled.
func (e *Event) Time() float64 { return e.time }

// Seq returns the event's scheduling sequence number — the FIFO tie-break
// key for same-instant events.
func (e *Event) Seq() uint64 { return e.seq }

// Handle refers to a scheduled event. The zero Handle refers to no event
// and is inert: Scheduled reports false and Cancel is a no-op. After the
// event fires or is cancelled the handle goes stale (its generation no
// longer matches the pooled record's), and every operation through it is
// likewise inert — a stale handle can never act on a reused record.
type Handle struct {
	e   *Event
	gen uint32
}

// Scheduled reports whether the handle's event is still pending.
func (h Handle) Scheduled() bool {
	return h.e != nil && h.gen == h.e.gen && h.e.index >= 0
}

// SetKind tags the pending event for the trace digest (see Event.Kind).
// Call it immediately after At or After returns; tagging through a zero
// or stale handle panics, because the tag would otherwise silently land
// on whatever event reused the record.
func (h Handle) SetKind(k byte) {
	if h.e == nil || h.gen != h.e.gen {
		panic("sim: SetKind through a stale event handle")
	}
	h.e.Kind = k
}

// Impl selects the future-event-list implementation behind a Scheduler.
type Impl int

const (
	// Calendar is the default: an adaptive calendar queue with
	// amortized O(1) schedule/fire/cancel (see calendar.go).
	Calendar Impl = iota
	// Heap is the reference binary-heap implementation the calendar
	// queue is differentially tested against — O(log n) per operation,
	// bit-identical fire order.
	Heap
)

// String returns the implementation name as used in flags and reports.
func (i Impl) String() string {
	switch i {
	case Calendar:
		return "calendar"
	case Heap:
		return "heap"
	default:
		return "unknown"
	}
}

// ParseImpl converts a flag value to an Impl.
func ParseImpl(s string) (Impl, error) {
	switch s {
	case "calendar":
		return Calendar, nil
	case "heap":
		return Heap, nil
	default:
		return 0, fmt.Errorf("sim: unknown scheduler implementation %q (want calendar or heap)", s)
	}
}

// Scheduler owns the simulated clock and the future-event list.
//
// Scheduler is not safe for concurrent use: the model is single-threaded by
// design so that runs are reproducible. All model code runs inside event
// actions on one goroutine.
type Scheduler struct {
	now float64
	seq uint64
	// Exactly one of cal and hp is non-nil; hp == nil selects the
	// calendar-queue fast path on every dispatch below.
	cal     *calendar
	hp      *eventHeap
	free    []*Event // retired records awaiting reuse
	slab    []Event  // contiguous backing for fresh records
	fired   uint64
	stopped bool

	// hooked gates the digest/observer work with a single predictable
	// branch on the fire path; it is true iff digestOn or observer is set,
	// so the common disabled case pays one untaken branch and no calls.
	hooked bool
	// digest is a running FNV-1a hash over (time, seq, kind) of every
	// fired event, maintained only when digestOn is set.
	digest   uint64
	digestOn bool
	// observer, when non-nil, is invoked for every fired event just
	// before its action runs (the calendar is between events, so model
	// state is quiescent). Used by runtime auditors. The *Event is valid
	// only for the duration of the call: the record is pooled.
	observer func(e *Event)
}

// New returns a Scheduler with the clock at zero and an empty event
// list, using the default calendar-queue implementation.
func New() *Scheduler {
	return NewImpl(Calendar)
}

// NewImpl returns a Scheduler backed by the selected future-event-list
// implementation. Both implementations fire the same events in the same
// order; Heap exists as the differential-testing reference.
func NewImpl(impl Impl) *Scheduler {
	s := &Scheduler{}
	if impl == Heap {
		s.hp = &eventHeap{}
	} else {
		s.cal = newCalendar()
	}
	return s
}

// Impl reports which future-event-list implementation backs s.
func (s *Scheduler) Impl() Impl {
	if s.hp != nil {
		return Heap
	}
	return Calendar
}

// Now returns the current simulated time.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int {
	if s.hp != nil {
		return s.hp.len()
	}
	return s.cal.len()
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// fnv-1a 64-bit parameters (FNV is cheap, stateless between updates, and
// good enough to detect any change in the event stream).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// EnableDigest starts maintaining a running hash of every subsequently
// fired event's (time, seq, kind) triple. Two runs of the same model with
// the same seed produce the same digest if and only if they fired the
// same events in the same order — a cheap byte-identity check for
// determinism regressions. Enable before the first event fires.
func (s *Scheduler) EnableDigest() {
	s.digestOn = true
	s.hooked = true
	s.digest = fnvOffset64
}

// Digest returns the current trace digest (0 unless EnableDigest was
// called).
func (s *Scheduler) Digest() uint64 {
	if !s.digestOn {
		return 0
	}
	return s.digest
}

// Observe registers fn to be called for every fired event, immediately
// before its action runs. Pass nil to remove the observer. The observer
// must not schedule or cancel events, and must not retain the *Event
// beyond the call — the record is pooled and will be reused. Nor may it
// keep anything it reaches through the event, such as a
// *workload.Query of the model: the system pools those records too.
func (s *Scheduler) Observe(fn func(e *Event)) {
	s.observer = fn
	s.hooked = s.digestOn || fn != nil
}

// mix folds one fired event into the running digest.
func (s *Scheduler) mix(e *Event) {
	h := s.digest
	for _, v := range [3]uint64{math.Float64bits(e.time), e.seq, uint64(e.Kind)} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	s.digest = h
}

// fireHooks runs the digest and observer work for one fired event. Kept
// out of Step so the disabled case stays a single untaken branch.
func (s *Scheduler) fireHooks(e *Event) {
	if s.digestOn {
		s.mix(e)
	}
	if s.observer != nil {
		s.observer(e)
	}
}

// At schedules action to run at absolute simulated time t.
//
// Scheduling in the past or with a non-finite time is a programming error
// in the model and panics, mirroring how out-of-range slice indexing is
// treated: the simulation state would be meaningless if it continued.
func (s *Scheduler) At(t float64, action Action) Handle {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: event time %v is not finite", t))
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: event time %v precedes current time %v", t, s.now))
	}
	if action == nil {
		panic("sim: nil event action")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.time = t
		e.seq = s.seq
		e.Kind = 0
		e.action = action
	} else {
		e = s.newRecord()
		e.time = t
		e.seq = s.seq
		e.action = action
	}
	s.seq++
	if s.hp != nil {
		s.hp.push(e)
	} else {
		s.cal.insert(e)
	}
	return Handle{e: e, gen: e.gen}
}

// slabSize is how many Event records one slab allocation carves out.
// Slabs keep a scheduler's pooled records contiguous — the hot window of
// a simulation walks a few cache-dense arrays instead of pointer-chasing
// individually allocated objects — and divide allocation count during
// pool growth by the same factor.
const slabSize = 64

// newRecord returns a fresh record from the current slab, starting a new
// slab when the current one is exhausted. Only pool growth reaches here;
// the steady state recycles via the free list.
func (s *Scheduler) newRecord() *Event {
	if len(s.slab) == 0 {
		s.slab = make([]Event, slabSize)
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	return e
}

// After schedules action to run d time units from now. Negative or
// non-finite delays panic (see At).
func (s *Scheduler) After(d float64, action Action) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, action)
}

// Cancel removes a pending event from the calendar and returns its record
// to the pool. It reports whether the event was still pending — false for
// the zero Handle or one whose event already fired or was cancelled.
func (s *Scheduler) Cancel(h Handle) bool {
	e := h.e
	if e == nil || e.gen != h.gen || e.index < 0 {
		return false
	}
	if s.hp != nil {
		s.hp.remove(e)
	} else {
		s.cal.remove(e)
	}
	s.retire(e)
	return true
}

// retire returns a record to the free list, invalidating every handle to
// it by bumping the generation.
func (s *Scheduler) retire(e *Event) {
	e.index = -1
	e.action = nil
	e.gen++
	s.free = append(s.free, e)
}

// popUntil removes and returns the earliest pending event if its time
// is at most t, or nil if there is none. It is the one head lookup per
// fired event: both Step and RunUntil fire what it returns.
func (s *Scheduler) popUntil(t float64) *Event {
	if s.hp != nil {
		if e := s.hp.min(); e == nil || e.time > t {
			return nil
		}
		return s.hp.pop()
	}
	return s.cal.popUntil(t)
}

// fire advances the clock to a popped event's time and runs it.
func (s *Scheduler) fire(e *Event) {
	e.index = -1
	s.now = e.time
	action := e.action
	s.fired++
	if s.hooked {
		s.fireHooks(e)
	}
	// Retire before running the action so the action's own rescheduling
	// reuses this record immediately (the common service-loop pattern).
	s.retire(e)
	action()
}

// Step fires the single earliest pending event, advancing the clock to its
// time. It reports whether an event was fired. It pops and fires exactly
// as one iteration of RunUntil does.
func (s *Scheduler) Step() bool {
	e := s.popUntil(math.Inf(1))
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// Run fires events until the calendar is empty or Stop is called. The
// clock stays at the last fired event.
func (s *Scheduler) Run() { s.RunUntil(math.Inf(1)) }

// RunUntil fires events with time <= t, then advances the clock to exactly
// t. Events scheduled at t fire; later events stay pending. Each iteration
// pops the head it inspected and fires it, so an event costs one head
// lookup. A +Inf horizon fires until the calendar is empty and leaves the
// clock at the last fired event, as Run does; a NaN horizon panics, as a
// NaN event time does in At.
func (s *Scheduler) RunUntil(t float64) {
	if math.IsNaN(t) {
		panic("sim: RunUntil horizon is NaN")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) precedes current time %v", t, s.now))
	}
	s.stopped = false
	for !s.stopped {
		e := s.popUntil(t)
		if e == nil {
			break
		}
		s.fire(e)
	}
	if !s.stopped && s.now < t && !math.IsInf(t, 1) {
		s.now = t
	}
}

// Stop makes the innermost Run or RunUntil return after the current event
// completes. It is intended to be called from inside an event action.
func (s *Scheduler) Stop() { s.stopped = true }

// less orders events by time, breaking ties by scheduling order so that
// same-instant events fire FIFO. Both future-event-list implementations
// order by exactly this predicate, which is what makes their fire
// streams — and therefore all trace digests — bit-identical.
func less(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}
