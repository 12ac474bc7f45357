package sim

// calendar is the kernel's default future-event list: a rolling-window
// calendar queue (after Brown, CACM 31(10), 1988) with amortized O(1)
// insert, pop-min, and cancel, replacing the binary heap's O(log n)
// sift on every operation.
//
// Layout. Simulated time is cut into virtual buckets of one width,
// counted from origin: an event at time t belongs to virtual bucket
//
//	v = ⌊(t − origin)·invw⌋
//
// The nb slots (a power of two) hold the window of virtual buckets
// [cur, cur+nb), bucket v in slot v & mask, each as a doubly-linked list
// kept sorted by (time, seq). The cursor rests on the first non-empty
// bucket, so the head of its slot is the global minimum and pop is an
// unlink. An insert earlier than the cursor's bucket (the clock trails
// the cursor after a popUntil that stopped at its horizon, or a
// re-anchor) is clamped into the cursor's slot, where the sorted insert
// puts it ahead of the later events.
// Events beyond the window wait in an overflow min-heap; every cursor
// advance opens one virtual bucket at the window's top and migrates the
// overflow events that now fall inside it, so a far-future event (a
// terminal think time) pays one O(log n) detour while the head keeps
// rolling. Only when the window holds nothing at all does the origin
// re-anchor at the overflow minimum.
//
// Adaptivity. The slot count tracks the population (double when count
// > 2·nb, halve when count < nb/2). The bucket width is calGapFactor ×
// the mean gap between popped events: the event density at the head,
// where inserts land and the cursor walks, so a bucket holds a few
// events however long a far-future tail the pending set carries. The
// estimate is refreshed every calSampleTurnovers population turnovers
// and on every resize; a same-size rebuild follows only when it has
// moved more than calRetune× from the width in use. Before any pops
// have been seen, the width comes from the bulk spread of the pending
// set instead (spreadWidth).
//
// Determinism. Pop order is by (time, seq) exactly — the same total
// order as the reference heap — because the virtual-bucket map is
// monotone in time (subtraction and multiplication by a positive width
// are monotone) and the window maps distinct buckets to distinct slots,
// within-slot lists are sorted, and overflow events map strictly beyond
// the window, hence later than every bucketed event. Width and resize
// heuristics can therefore never change the fire order, only the cost
// of maintaining it: trace digests are bit-identical to the heap's by
// construction. See DESIGN.md §12.
type calendar struct {
	slots  []bucket
	nb     int     // len(slots), a power of two >= calMinBuckets
	mask   int     // nb - 1
	width  float64 // simulated-time span of one bucket
	invw   float64 // 1/width; bucket mapping multiplies, never divides
	origin float64 // left edge of virtual bucket 0
	cur    int     // virtual bucket under the cursor; earlier ones are empty

	inBuckets int       // events currently in slots
	ovf       eventHeap // far-future events, mapping at or beyond cur+nb
	count     int       // total pending (inBuckets + ovf.len())

	scratch []*Event // rebuild staging, capacity reused

	// Head sample: pops events have fired since the sample began at time
	// mark, the latest at time last; the sample closes at sampleAt pops.
	// headWidth is the width the last closed sample asks for,
	// calGapFactor × its mean inter-pop gap; 0 until one has closed.
	pops, sampleAt int
	mark, last     float64
	headWidth      float64
}

// bucket is one calendar slot: a (time, seq)-sorted doubly-linked list
// threaded through the pooled Event records themselves, so membership
// costs no allocation.
type bucket struct {
	head, tail *Event
}

const (
	// calMinBuckets is the smallest slot array; below this the constant
	// factors of resizing outweigh scan cost.
	calMinBuckets = 8
	// calGapFactor scales the mean gap between pops into a bucket width:
	// the cursor's bucket holds about this many events that will fire.
	calGapFactor = 4
	// calSampleTurnovers is how many times the pending population turns
	// over (in pops) between width re-estimates.
	calSampleTurnovers = 2
	// calMinSample is the fewest pops a head sample may close on.
	calMinSample = 32
	// calRetune is the factor by which the estimate must move away from
	// the width in use before a same-size rebuild applies it.
	calRetune = 2
)

func newCalendar() *calendar {
	c := &calendar{
		slots:    make([]bucket, calMinBuckets),
		nb:       calMinBuckets,
		mask:     calMinBuckets - 1,
		width:    1,
		invw:     1,
		sampleAt: calMinSample,
	}
	c.ovf.base = calMinBuckets
	return c
}

func (c *calendar) len() int { return c.count }

// insert schedules e, growing the slot array when the population calls
// for it.
func (c *calendar) insert(e *Event) {
	c.count++
	c.place(e)
	if c.count > 2*c.nb {
		c.rebuild(2 * c.nb)
	}
}

// place routes e to its slot or the overflow heap. It performs no
// resize checks, so rebuild and overflow migration can reuse it.
//
// Within a slot, e goes where a sorted walk would put it. Because (time,
// seq) is a strict total order that position is unique, and three cases
// find it without walking: an empty slot, e not before the tail (append —
// the common case, since new events usually carry the latest (time, seq)
// in their bucket, and a same-instant burst always appends because seq
// increases), and e before the head (prepend). Only an interior position
// walks, from the tail, and it stops before the head because e is not
// before the head.
func (c *calendar) place(e *Event) {
	d := (e.time - c.origin) * c.invw
	if d >= float64(c.cur+c.nb) {
		// Beyond the window: far-future overflow.
		c.ovf.push(e)
		return
	}
	// Clamp anything before the cursor's bucket into the cursor's slot.
	v := c.cur
	if d > float64(v) {
		v = int(d)
	}
	i := v & c.mask
	c.inBuckets++
	e.index = int32(i)
	b := &c.slots[i]
	switch tail := b.tail; {
	case tail == nil:
		e.prev, e.next = nil, nil
		b.head, b.tail = e, e
	case !less(e, tail):
		e.prev, e.next = tail, nil
		tail.next = e
		b.tail = e
	case less(e, b.head):
		e.prev, e.next = nil, b.head
		b.head.prev = e
		b.head = e
	default:
		p := tail.prev
		for less(e, p) {
			p = p.prev
		}
		e.prev, e.next = p, p.next
		p.next.prev = e
		p.next = e
	}
}

// unlink removes a bucketed event from its list in O(1).
func (c *calendar) unlink(e *Event) {
	b := &c.slots[e.index]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.next, e.prev = nil, nil
}

// peek returns the earliest pending event without removing it, or nil.
// It advances the cursor past empty buckets, re-anchoring first if only
// overflow events remain; both moves are state the next peek/popUntil
// reuses, never information loss.
func (c *calendar) peek() *Event {
	if c.count == 0 {
		return nil
	}
	if c.inBuckets == 0 {
		c.origin = c.ovf.min().time
		c.cur = 0
		c.migrate()
	}
	for c.slots[c.cur&c.mask].head == nil {
		c.cur++
		c.migrate()
	}
	return c.slots[c.cur&c.mask].head
}

// migrate moves the overflow events that map inside the window into
// slots. The bound is the exact expression place routes by, so a
// migrated event can never bounce back to overflow.
func (c *calendar) migrate() {
	top := float64(c.cur + c.nb)
	for c.ovf.len() > 0 && (c.ovf.min().time-c.origin)*c.invw < top {
		c.place(c.ovf.pop())
	}
}

// popUntil removes and returns the earliest pending event if its time
// is at most t, or nil if there is none. The cursor walk that finds the
// head is done once: the caller fires what popUntil returns, with no
// second lookup.
func (c *calendar) popUntil(t float64) *Event {
	e := c.peek()
	if e == nil || e.time > t {
		return nil
	}
	c.unlink(e)
	c.inBuckets--
	c.count--
	c.last = e.time
	c.pops++
	nb := c.nb
	if nb > calMinBuckets && c.count < nb/2 {
		nb /= 2
	}
	if nb != c.nb || (c.pops >= c.sampleAt && c.retune()) {
		c.rebuild(nb)
	}
	return e
}

// remove cancels a pending event wherever it sits.
func (c *calendar) remove(e *Event) {
	if int(e.index) >= c.nb {
		c.ovf.remove(e)
	} else {
		c.unlink(e)
		c.inBuckets--
	}
	c.count--
	if c.nb > calMinBuckets && c.count < c.nb/2 {
		c.rebuild(c.nb / 2)
	}
}

// sample closes the head sample once it holds calMinSample pops, taking
// the width it asks for as the new estimate (a sample spanning no time,
// or an absurd one, keeps the old), and opens the next sample.
func (c *calendar) sample() {
	if c.pops < calMinSample {
		return
	}
	if w := calGapFactor * (c.last - c.mark) / float64(c.pops); w > 1e-300 && w < 1e300 {
		c.headWidth = w
	}
	c.mark = c.last
	c.pops = 0
	c.sampleAt = calSampleTurnovers*c.count + calMinSample
}

// retune closes the head sample and reports whether the width it asks
// for lies more than calRetune× away from the width in use.
func (c *calendar) retune() bool {
	c.sample()
	w := c.headWidth
	return w > calRetune*c.width || w > 0 && calRetune*w < c.width
}

// rebuild resizes the slot array to nb, re-estimates the bucket width,
// re-anchors the window at the earliest pending event, and re-inserts
// every pending event. Collection walks the window in bucket order then
// drains the overflow heap, which yields the events in ascending
// (time, seq) — so every re-insert is an O(1) tail append (or an O(1)
// push of a new heap maximum) and the whole rebuild is O(count) plus
// the overflow drain. Backing arrays (slots, scratch, overflow) are
// reused across rebuilds: steady-state oscillation across a resize
// boundary allocates nothing once capacities are warm.
func (c *calendar) rebuild(nb int) {
	if nb < calMinBuckets {
		nb = calMinBuckets
	}
	sc := c.scratch[:0]
	for v := c.cur; len(sc) < c.inBuckets; v++ {
		for e := c.slots[v&c.mask].head; e != nil; e = e.next {
			sc = append(sc, e)
		}
	}
	for c.ovf.len() > 0 {
		sc = append(sc, c.ovf.pop())
	}
	c.sample()
	w := c.headWidth
	if w == 0 {
		w = c.spreadWidth(sc)
	}
	c.width, c.invw = w, 1/w
	if cap(c.slots) >= nb {
		c.slots = c.slots[:nb]
		clear(c.slots)
	} else {
		c.slots = make([]bucket, nb)
	}
	c.nb, c.mask = nb, nb-1
	c.ovf.base = int32(nb)
	c.inBuckets = 0
	c.cur = 0
	if len(sc) > 0 {
		c.origin = sc[0].time
	}
	for i, e := range sc {
		e.next, e.prev = nil, nil
		c.place(e)
		sc[i] = nil
	}
	c.scratch = sc[:0]
}

// spreadWidth is the fallback width before any head sample has closed:
// the mean gap across the earliest 7/8 of the sorted pending set (the
// far tail is excluded so one distant straggler can't blow the span
// up), scaled by calGapFactor — the gap pops would show if nothing new
// were scheduled. With fewer than two distinct times, or a degenerate
// spread, the current width stands.
func (c *calendar) spreadWidth(sorted []*Event) float64 {
	n := len(sorted)
	if n < 2 {
		return c.width
	}
	q := n - 1
	if n >= 8 {
		q = n - n/8
	}
	w := calGapFactor * (sorted[q].time - sorted[0].time) / float64(q)
	if !(w > 1e-300) || w > 1e300 {
		return c.width
	}
	return w
}
