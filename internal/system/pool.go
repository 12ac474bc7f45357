package system

import (
	"fmt"

	"dqalloc/internal/workload"
)

// This file pools the lifecycle records — query attempts, operator
// instances and plans — and the untracked queries of runs without
// lifecycle subsystems, so a run allocates them only until its free
// lists cover the peak in-flight population (see DESIGN.md, "Record
// pool"). The free rule: a record counts the deliveries still owed to
// it — ring messages carrying it and timers not cancelled at its
// retirement — and returns to its free list exactly once, when it has
// been retired and that count is zero. Every surviving reference is
// counted, so no stale one can reach a reused record and no generation
// field is needed. Records are taken only when a query, a hedge clone or
// a plan starts, never inside the callback chain that retired one.

// freeList is a LIFO free list of one record kind. taken and returned
// count the traffic, so their difference is the number of records held.
type freeList[T any] struct {
	free            []*T
	taken, returned uint64
}

// get takes a released record, or returns nil when none is free and the
// caller must allocate one — binding its callbacks once for its whole
// life. The caller resets what a previous user left.
func (f *freeList[T]) get() *T {
	f.taken++
	n := len(f.free)
	if n == 0 {
		return nil
	}
	r := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return r
}

// put returns a record to the list.
func (f *freeList[T]) put(r *T) {
	f.returned++
	f.free = append(f.free, r)
}

// held returns the number of records taken and not yet returned.
func (f *freeList[T]) held() uint64 { return f.taken - f.returned }

// allocAttempt builds a fresh attempt record with its timer callbacks
// bound to it.
func (s *System) allocAttempt() *attempt {
	a := new(attempt)
	a.fns = attemptFns{
		deadline: func() { s.deadlineExpire(&a.q) },
		timeout:  func() { s.faultTimeout(&a.q) },
		retry:    func() { s.faultRedispatch(&a.q) },
		resubmit: func() { s.resubmit(&a.q) },
	}
	a.own.fire = func() { s.hedgeFire(&a.own) }
	return a
}

// allocInst builds a fresh operator instance with its hedge launch bound
// to it.
func (s *System) allocInst() *opInstance {
	in := new(opInstance)
	in.fire = func() { s.hedgeFire(&in.hedgeRace) }
	return in
}

// newAttempt takes an attempt record for a logical query or a hedge
// clone, cleared but for its bound callbacks. The caller fills its query,
// linking q.Attempt back to the record.
func (s *System) newAttempt() *attempt {
	a := s.attempts.get()
	if a == nil {
		a = s.allocAttempt()
	}
	fns, fire := a.fns, a.own.fire
	*a = attempt{fns: fns}
	a.own.fire = fire
	return a
}

// newQuery is a terminal's or arrival source's new query: sampled into a
// fresh attempt record when the run tracks lifecycles, and otherwise into
// a query endQuery released, allocated only while none is free. Either
// way the query counts as live until endQuery. class < 0 samples the
// class too.
func (s *System) newQuery(class, home int) *workload.Query {
	var a *attempt
	var q *workload.Query
	if s.tracked {
		a = s.newAttempt()
		q = &a.q
	} else if q = s.queries.get(); q == nil {
		q = new(workload.Query)
	}
	now := s.sched.Now()
	if class < 0 {
		s.gen.Fill(q, home, now)
	} else {
		s.gen.FillOfClass(q, class, home, now)
	}
	if a != nil {
		q.Attempt = a
	}
	s.led.QueriesLive++
	return q
}

// hold counts one more delivery owed to a's record: a plan carrier's
// deliveries are owed to its plan, which owns its memory.
func (s *System) hold(a *attempt) {
	if pe := a.owner; pe != nil {
		pe.pending++
		return
	}
	a.pending++
}

// unhold settles one owed delivery, freeing the owning record when it was
// the last one owed to a retired record.
func (s *System) unhold(a *attempt) {
	if pe := a.owner; pe != nil {
		s.unholdPlan(pe)
		return
	}
	if a.pending--; a.pending == 0 && a.ended {
		s.led.StrandedAttempts--
		s.freeAttempt(a)
	}
}

// unholdPlan settles one delivery owed to pe.
func (s *System) unholdPlan(pe *planExec) {
	if pe.pending--; pe.pending == 0 && pe.ended {
		s.led.StrandedPlans--
		s.freePlan(pe)
	}
}

// endAttempt retires a pool-owned attempt record — a hedge clone whose
// race is over, or a logical query completed or rejected. It is freed now
// or, when deliveries are still owed to it, by the last of them.
func (s *System) endAttempt(a *attempt) {
	if a.ended || a.owner != nil {
		panic("system: attempt record retired twice or by its carrier")
	}
	a.ended = true
	if a.pending > 0 {
		s.led.StrandedAttempts++
		return
	}
	s.freeAttempt(a)
}

// endQuery retires logical query q at its one end — completion,
// rejection or deadline miss — and is the one release point of every
// logical query. A tracked query's record retires with it; an untracked
// query has no deliveries or timers left once it ends, so it goes
// straight back to its free list. Under Audit it is poisoned with the
// releasedQuery sentinel, so a stale delivery (see live) or a second end
// (see endAttempt) panics; the Fill that reuses it clears the sentinel.
func (s *System) endQuery(q *workload.Query) {
	s.led.QueriesLive--
	if a := rec(q); a != nil {
		s.endAttempt(a)
		return
	}
	if s.aud != nil {
		q.Attempt = releasedQuery
	}
	s.queries.put(q)
}

// releasedQuery is the poison record of a released untracked query: free,
// and already retired.
var releasedQuery = &attempt{phase: phaseFree, ended: true}

// freeAttempt poisons a's record and returns it to its list. Under Audit
// a record still marked defunct (a delivery would consume a reused
// record's bit) or with a timer still scheduled (it would fire into one)
// is a lifecycle bug.
func (s *System) freeAttempt(a *attempt) {
	if s.aud != nil && (a.defunct || a.deadline.Scheduled() || a.watchdog.Scheduled() || a.own.timer.Scheduled()) {
		panic(fmt.Sprintf("system: query %d attempt released with defunct=%v deadline=%v watchdog=%v hedge=%v",
			a.q.ID, a.defunct, a.deadline.Scheduled(), a.watchdog.Scheduled(), a.own.timer.Scheduled()))
	}
	a.phase = phaseFree
	s.attempts.put(a)
}

// live returns q's record for a delivery now arriving, panicking when the
// record was already released: the delivery was not counted.
func live(q *workload.Query) *attempt {
	a := rec(q)
	if a != nil && a.phase == phaseFree {
		panic(fmt.Sprintf("system: delivery for released query %d attempt", q.ID))
	}
	return a
}

// newPlan takes a plan record for logical query q executing plan, whose
// operators it copies into its own buffer; its instance lists start
// empty, one per operator.
func (s *System) newPlan(q *workload.Query, plan workload.Plan) *planExec {
	pe := s.plans.get()
	if pe == nil {
		pe = new(planExec)
	}
	n := len(plan.Ops)
	*pe = planExec{
		q:         q,
		plan:      workload.Plan{Ops: append(pe.plan.Ops[:0], plan.Ops...), Root: plan.Root},
		parent:    pe.parent,
		insts:     pe.insts,
		partNode:  -1,
		splitNode: -1,
	}
	if cap(pe.insts) < n {
		pe.insts = make([][]*opInstance, n)
	}
	pe.insts = pe.insts[:n]
	for i := range pe.insts {
		pe.insts[i] = pe.insts[i][:0]
	}
	s.led.PlansLive++
	return pe
}

// newInst takes an operator instance of pe's node at site, its carrier
// query zeroed and linked as the primary of the instance's race.
func (s *System) newInst(pe *planExec, node, site int, outBytes float64) *opInstance {
	in := s.insts.get()
	if in == nil {
		in = s.allocInst()
	}
	fire := in.fire
	*in = opInstance{pe: pe, node: node, site: site, outBytes: outBytes}
	in.fire = fire
	c := &in.carrier
	c.q.Attempt = c
	c.race = &in.hedgeRace
	c.inst = in
	c.owner = pe
	c.spawned = true
	in.primary = &c.q
	pe.insts[node] = append(pe.insts[node], in)
	return in
}

// endPlan retires pe — completed, collapsed, or never placed. Its
// instances go with it, now or when the last delivery owed to it lands.
func (s *System) endPlan(pe *planExec) {
	if pe.ended {
		panic("system: plan retired twice")
	}
	pe.ended = true
	s.led.PlansLive--
	if pe.pending > 0 {
		s.led.StrandedPlans++
		return
	}
	s.freePlan(pe)
}

// freePlan returns pe and its instances to their lists, poisoning every
// carrier. Under Audit a defunct carrier or a scheduled hedge launch is a
// lifecycle bug, as for attempts.
func (s *System) freePlan(pe *planExec) {
	for _, insts := range pe.insts {
		for _, in := range insts {
			if s.aud != nil && (in.carrier.defunct || in.timer.Scheduled()) {
				panic(fmt.Sprintf("system: query %d operator %d released with defunct=%v hedge=%v",
					pe.q.ID, in.node, in.carrier.defunct, in.timer.Scheduled()))
			}
			in.carrier.phase = phaseFree
			s.insts.put(in)
		}
	}
	pe.pending = -1
	s.plans.put(pe)
}
