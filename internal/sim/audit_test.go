package sim

import "testing"

// auditScheduler validates every structural invariant of s's
// future-event list and free list. It is shared by the fuzz target and
// the differential property tests, and branches on the implementation:
// heap order and index mapping for Impl Heap; bucket-list ordering,
// bucket mapping, cursor position, overflow routing, and count
// bookkeeping for Impl Calendar.
func auditScheduler(t *testing.T, s *Scheduler) {
	t.Helper()
	if s.hp != nil {
		auditHeap(t, &s.hp.items, s.hp.base)
	} else {
		auditCalendar(t, s.cal)
	}
	for i, e := range s.free {
		if e.index != -1 || e.action != nil || e.next != nil || e.prev != nil {
			t.Fatalf("free[%d] not retired: index %d, action nil=%v, linked=%v",
				i, e.index, e.action == nil, e.next != nil || e.prev != nil)
		}
	}
}

// auditHeap checks the binary-heap invariants: parent ≤ child under the
// (time, seq) order, every record knows its own position, and no record
// lost its action while pending.
func auditHeap(t *testing.T, items *[]*Event, base int32) {
	t.Helper()
	for i, e := range *items {
		if e.index != base+int32(i) {
			t.Fatalf("heap[%d] has index %d (base %d)", i, e.index, base)
		}
		if i > 0 && less(e, (*items)[(i-1)/2]) {
			t.Fatalf("heap order violated at %d: (%v,%d) < parent", i, e.time, e.seq)
		}
		if e.action == nil {
			t.Fatalf("pending heap[%d] has nil action", i)
		}
	}
}

// auditCalendar checks the rolling-window calendar: the slot count is a
// power of two; each slot is a consistent doubly-linked list sorted by
// (time, seq); every bucketed event's virtual bucket lies in the window
// [cur, cur+nb) and sits in slot v & mask, except events earlier than
// the cursor's bucket, which are clamped into the cursor's slot; every
// overflow event maps at or beyond cur+nb; and the population counters
// agree with the structures.
func auditCalendar(t *testing.T, c *calendar) {
	t.Helper()
	if c.nb != len(c.slots) || c.nb < calMinBuckets || c.nb&(c.nb-1) != 0 || c.mask != c.nb-1 {
		t.Fatalf("nb %d, mask %d, %d slots: want a power of two >= %d", c.nb, c.mask, len(c.slots), calMinBuckets)
	}
	if c.cur < 0 {
		t.Fatalf("cursor %d is negative", c.cur)
	}
	inBuckets := 0
	for i := range c.slots {
		b := c.slots[i]
		if (b.head == nil) != (b.tail == nil) {
			t.Fatalf("slot %d has head nil=%v tail nil=%v", i, b.head == nil, b.tail == nil)
		}
		var prev *Event
		for e := b.head; e != nil; e = e.next {
			inBuckets++
			if e.prev != prev {
				t.Fatalf("slot %d list has broken prev link at seq %d", i, e.seq)
			}
			if prev != nil && !less(prev, e) {
				t.Fatalf("slot %d not sorted: (%v,%d) before (%v,%d)",
					i, prev.time, prev.seq, e.time, e.seq)
			}
			if int(e.index) != i {
				t.Fatalf("event in slot %d has index %d", i, e.index)
			}
			if e.action == nil {
				t.Fatalf("pending event in slot %d has nil action", i)
			}
			v, ovf := c.mapTime(e.time)
			switch {
			case ovf:
				t.Fatalf("event at t=%v sits in slot %d but maps beyond the window [%d, %d)",
					e.time, i, c.cur, c.cur+c.nb)
			case v < c.cur && i != c.cur&c.mask:
				t.Fatalf("event at t=%v maps to bucket %d before cursor %d but sits in slot %d, not the cursor's %d",
					e.time, v, c.cur, i, c.cur&c.mask)
			case v >= c.cur && v&c.mask != i:
				t.Fatalf("event at t=%v maps to bucket %d (slot %d) but sits in slot %d",
					e.time, v, v&c.mask, i)
			}
			prev = e
		}
		if b.tail != prev {
			t.Fatalf("slot %d tail does not terminate its list", i)
		}
	}
	if inBuckets != c.inBuckets {
		t.Fatalf("inBuckets %d, counted %d", c.inBuckets, inBuckets)
	}
	if c.count != c.inBuckets+c.ovf.len() {
		t.Fatalf("count %d != %d bucketed + %d overflow", c.count, c.inBuckets, c.ovf.len())
	}
	if c.ovf.base != int32(c.nb) {
		t.Fatalf("overflow base %d, nb %d", c.ovf.base, c.nb)
	}
	auditHeap(t, &c.ovf.items, c.ovf.base)
	for _, e := range c.ovf.items {
		if _, ovf := c.mapTime(e.time); !ovf {
			t.Fatalf("overflow event at t=%v maps inside the window [%d, %d)", e.time, c.cur, c.cur+c.nb)
		}
		if e.next != nil || e.prev != nil {
			t.Fatalf("overflow event at t=%v still slot-linked", e.time)
		}
	}
}

// mapTime replicates place's routing arithmetic for the auditor: the
// virtual bucket of time tm (0 for times before the origin), or
// overflow if it maps at or beyond the window's top.
func (c *calendar) mapTime(tm float64) (bucket int, overflow bool) {
	d := (tm - c.origin) * c.invw
	if d >= float64(c.cur+c.nb) {
		return 0, true
	}
	if d > 0 {
		return int(d), false
	}
	return 0, false
}
