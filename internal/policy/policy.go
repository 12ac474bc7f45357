// Package policy implements the paper's dynamic query allocation
// algorithms (Section 4): the generic site-selection procedure of Figure
// 3 and the cost functions of Figures 4–6 (BNQ, BNQRD, LERT), plus the
// LOCAL and RANDOM baselines used in the evaluation.
package policy

import (
	"fmt"
	"math"
	"strings"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// Env carries everything a policy may consult when costing a site: the
// load view, the (homogeneous) site hardware parameters, and the network
// cost model.
type Env struct {
	// View exposes per-site query counts (possibly stale).
	View loadinfo.View
	// NumSites is the number of candidate DB sites.
	NumSites int
	// NumDisks and DiskTime describe each site's storage hardware.
	NumDisks int
	DiskTime float64
	// NetTime returns the pure transmission time (no queueing) to ship
	// query q to a remote site and return its results. Cost functions
	// charge it to every site but the arrival site.
	NetTime func(q *workload.Query) float64
	// Candidates restricts the allocation to the listed sites (the sites
	// holding a copy of the data the query references, in the partially
	// replicated extension). nil means every site is a candidate — the
	// paper's fully replicated environment. An empty non-nil set is
	// permitted and makes every policy return NoSite.
	Candidates []int
	// Up marks each site's liveness (fault-injection extension). nil
	// means every site is up — the paper's reliable-sites assumption
	// (Section 2). Policies never choose a down site; when no candidate
	// is live they return NoSite.
	Up []bool
	// CPUSpeeds gives each site's CPU speed factor in the heterogeneity
	// extension. nil means the paper's homogeneous sites (speed 1
	// everywhere). LERT consults this; the count-based policies cannot.
	CPUSpeeds []float64
	// Penalty adds a per-site surcharge to every cost the Selector
	// evaluates. The replica manager installs it for degraded remote
	// reads: when no up site holds a fragment, every site pays the ring
	// fetch time, so cost-based policies rank fallback sites with the
	// transfer priced in. nil means no surcharge (the common path). The
	// count-based LOCAL and RANDOM policies ignore it — they never
	// compare costs.
	Penalty func(site int) float64
	// Suspect marks sites under gray-failure suspicion (fail-slow
	// detection extension): up, reporting, but responding anomalously
	// slowly. nil means no detector is running. Unlike Up, suspicion is
	// advisory — cost-based policies price it through Penalty, while
	// LOCAL and RANDOM (which never compare costs) prefer unsuspected
	// sites and fall back to a suspect one only when every alternative
	// is suspect or down. The mask is updated in place by the detector.
	Suspect []bool
}

// NoSite is returned by Select when no candidate site may execute the
// query — the candidate set is empty, or every copy holder is down. It
// is never a valid site index; callers must handle it (reject the query
// or retry later) rather than dispatch.
const NoSite = -1

// candidateAllowed reports whether site may execute the query under the
// current candidate restriction.
func (e *Env) candidateAllowed(site int) bool {
	if e.Candidates == nil {
		return true
	}
	for _, s := range e.Candidates {
		if s == site {
			return true
		}
	}
	return false
}

// siteUp reports the site's liveness (true when no mask is installed).
func (e *Env) siteUp(site int) bool { return e.Up == nil || e.Up[site] }

// suspect reports whether the site is under gray-failure suspicion
// (always false without a detector).
func (e *Env) suspect(site int) bool { return e.Suspect != nil && e.Suspect[site] }

// allowed reports whether site may execute the query: it must hold a
// copy and be up.
func (e *Env) allowed(site int) bool { return e.siteUp(site) && e.candidateAllowed(site) }

// QueryBound classifies a query with the rule of Section 4.2, using the
// optimizer's demand estimates: if the per-disk I/O demand exceeds the
// per-page CPU demand the query is I/O-bound, otherwise CPU-bound.
func QueryBound(q *workload.Query, diskTime float64, numDisks int) workload.Bound {
	if diskTime/float64(numDisks) > q.EstPageCPU {
		return workload.IOBound
	}
	return workload.CPUBound
}

// Policy chooses the execution site for a newly submitted query.
type Policy interface {
	// Name returns the policy's short name as used in the paper's tables.
	Name() string
	// Select returns the chosen execution site for q, which arrived at
	// site arrival. It must not keep q past the call: the system pools
	// its queries, and a kept pointer would later read another query.
	Select(q *workload.Query, arrival int, env *Env) int
}

// Kind enumerates the built-in policies.
type Kind int

const (
	// Local always executes queries at their arrival site (the paper's
	// "LOCAL" reference case).
	Local Kind = iota + 1
	// Random picks a uniformly random site — a no-information baseline
	// beyond the paper's set.
	Random
	// BNQ balances the number of queries at each site (Figure 4).
	BNQ
	// BNQRD balances the number of queries of the same bound (Figure 5).
	BNQRD
	// LERT routes to the least estimated response time (Figure 6).
	LERT
	// Work balances the outstanding *estimated work* per resource — an
	// extension exploiting the paper's observation that load is a
	// two-dimensional quantity (Section 1): the cost of a site is its
	// bottleneck resource's backlog after accepting the query.
	Work
)

// String returns the policy name used in the paper's tables.
func (k Kind) String() string {
	switch k {
	case Local:
		return "LOCAL"
	case Random:
		return "RANDOM"
	case BNQ:
		return "BNQ"
	case BNQRD:
		return "BNQRD"
	case LERT:
		return "LERT"
	case Work:
		return "WORK"
	default:
		return "unknown"
	}
}

// ParseKind converts a policy name, as printed by Kind.String, to its
// Kind. Matching is case-insensitive and ignores surrounding spaces.
func ParseKind(s string) (Kind, error) {
	name := strings.ToUpper(strings.TrimSpace(s))
	for k := Local; k <= Work; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q (want LOCAL, RANDOM, BNQ, BNQRD, LERT, or WORK)", s)
}

// New builds a policy of the given kind for a system of numSites sites.
// stream drives randomized policies (Random) and may be nil otherwise.
func New(kind Kind, numSites int, stream *rng.Stream) (Policy, error) {
	if numSites <= 0 {
		return nil, fmt.Errorf("policy: numSites %d must be positive", numSites)
	}
	switch kind {
	case Local:
		return &localPolicy{}, nil
	case Random:
		if stream == nil {
			return nil, fmt.Errorf("policy: RANDOM needs a random stream")
		}
		return &randomPolicy{stream: stream}, nil
	case BNQ:
		return NewSelector(bnqCost{}, numSites), nil
	case BNQRD:
		return NewSelector(bnqrdCost{}, numSites), nil
	case LERT:
		return NewSelector(lertCost{}, numSites), nil
	case Work:
		return NewSelector(workCost{}, numSites), nil
	default:
		return nil, fmt.Errorf("policy: unknown kind %d", kind)
	}
}

// localPolicy keeps every query at its arrival site. The cursor spreads
// suspicion-displaced traffic: when a home site is marked gray, its
// whole arrival stream must land elsewhere, and nearest-downstream would
// dump all of it on one neighbor — doubling that site's load and buying
// back with queueing much of what rerouting saved. Round-robin over the
// clean sites splits the displaced stream evenly instead. The cursor
// only moves on the suspicion path, so runs without a detector are
// bit-identical to the stateless policy.
type localPolicy struct {
	rr int
}

func (*localPolicy) Name() string { return "LOCAL" }

func (p *localPolicy) Select(_ *workload.Query, arrival int, env *Env) int {
	if env.allowed(arrival) && !env.suspect(arrival) {
		return arrival
	}
	if env.suspect(arrival) {
		// Suspicion displacement: spread over the clean live sites.
		if best := p.cleanSpread(arrival, env); best != NoSite {
			return best
		}
	} else if best := localFallback(arrival, env, true); best != NoSite {
		// The home site holds no copy (partial replication) or is down
		// (fault injection); "local" degrades to the nearest unsuspected
		// live downstream copy holder, which spreads the traffic evenly
		// without load information (each home has its own neighbor).
		return best
	}
	if env.allowed(arrival) {
		// Every alternative is suspect or down too; a suspect home beats
		// a suspect remote (no message cost), so stay.
		return arrival
	}
	// NoSite when every copy holder is down.
	return localFallback(arrival, env, false)
}

// cleanSpread picks the next unsuspected live site after the cursor,
// advancing it on success.
func (p *localPolicy) cleanSpread(arrival int, env *Env) int {
	ok := func(s int) bool {
		return s != arrival && env.allowed(s) && !env.suspect(s)
	}
	if env.Candidates == nil {
		n := env.NumSites
		for i := 0; i < n-1; i++ {
			if s := (arrival + 1 + (p.rr+i)%(n-1)) % n; ok(s) {
				p.rr++
				return s
			}
		}
		return NoSite
	}
	m := len(env.Candidates)
	for i := 0; i < m; i++ {
		if s := env.Candidates[(p.rr+i)%m]; ok(s) {
			p.rr++
			return s
		}
	}
	return NoSite
}

// localFallback returns the nearest ring-downstream allowed site other
// than arrival; wantClean additionally excludes suspected sites.
func localFallback(arrival int, env *Env, wantClean bool) int {
	ok := func(s int) bool {
		return s != arrival && env.allowed(s) && !(wantClean && env.suspect(s))
	}
	if env.Candidates == nil {
		for d := 1; d < env.NumSites; d++ {
			if s := (arrival + d) % env.NumSites; ok(s) {
				return s
			}
		}
		return NoSite
	}
	best, bestDist := NoSite, env.NumSites
	for _, s := range env.Candidates {
		if !ok(s) {
			continue
		}
		if d := (s - arrival + env.NumSites) % env.NumSites; d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// randomPolicy sends each query to a uniformly random candidate site.
type randomPolicy struct {
	stream *rng.Stream
}

func (p *randomPolicy) Name() string { return "RANDOM" }

func (p *randomPolicy) Select(_ *workload.Query, _ int, env *Env) int {
	// The Up == nil, Suspect == nil paths consume exactly one draw over
	// the full set, preserving the no-fault random sequence bit for bit.
	if env.Candidates != nil {
		if len(env.Candidates) == 0 {
			return NoSite
		}
		if env.Up == nil && env.Suspect == nil {
			return env.Candidates[p.stream.Intn(len(env.Candidates))]
		}
		return pickUniform(p.stream, env, env.Candidates...)
	}
	if env.Up == nil && env.Suspect == nil {
		return p.stream.Intn(env.NumSites)
	}
	return pickUniform(p.stream, env)
}

// pickUniform draws uniformly among the live members of set (or of all
// sites when set is empty), preferring unsuspected ones: the draw is
// over the live-and-clean subset when it is non-empty, over all live
// members otherwise. NoSite — without consuming a draw — when none is
// live.
func pickUniform(stream *rng.Stream, env *Env, set ...int) int {
	if env.Suspect != nil {
		clean := func(s int) bool { return env.siteUp(s) && !env.Suspect[s] }
		if s := pickWhere(stream, env, clean, set); s != NoSite {
			return s
		}
	}
	return pickWhere(stream, env, env.siteUp, set)
}

// pickWhere draws uniformly among the members of set (or of all sites
// when set is nil) satisfying ok, returning NoSite — without consuming
// a draw — when none does.
func pickWhere(stream *rng.Stream, env *Env, ok func(int) bool, set []int) int {
	n := env.NumSites
	if set != nil {
		n = len(set)
	}
	nth := func(i int) int {
		if set != nil {
			return set[i]
		}
		return i
	}
	eligible := 0
	for i := 0; i < n; i++ {
		if ok(nth(i)) {
			eligible++
		}
	}
	if eligible == 0 {
		return NoSite
	}
	k := stream.Intn(eligible)
	for i := 0; i < n; i++ {
		if !ok(nth(i)) {
			continue
		}
		if k == 0 {
			return nth(i)
		}
		k--
	}
	panic("policy: unreachable")
}

// Batch is one decision's costing state, reused across decisions: the
// sites to cost, their query counts as read from the load view, and
// their costs. Entry i of IO, CPU, Total and Costs belongs to Sites[i].
type Batch struct {
	Sites          []int
	IO, CPU, Total []int
	Costs          []float64
}

// price costs every listed site with one CostFunc call.
func (b *Batch) price(cost CostFunc, q *workload.Query, arrival int, env *Env) {
	if cap(b.Costs) < len(b.Sites) {
		b.Costs = make([]float64, len(b.Sites))
	}
	b.Costs = b.Costs[:len(b.Sites)]
	cost.Costs(q, arrival, env, b)
}

// The counts a cost function reads, as flags for Batch.read.
const (
	needIO = 1 << iota
	needCPU
	needTotal
)

// read fills the listed sites' counts: with one ReadCounts call when the
// view is a loadinfo.CountReader, otherwise with one per-site call for
// each count in need, the reads the cost function makes per site.
func (b *Batch) read(v loadinfo.View, need int) {
	n := len(b.Sites)
	if cap(b.IO) < n {
		b.IO, b.CPU, b.Total = make([]int, n), make([]int, n), make([]int, n)
	}
	b.IO, b.CPU, b.Total = b.IO[:n], b.CPU[:n], b.Total[:n]
	if r, ok := v.(loadinfo.CountReader); ok {
		r.ReadCounts(b.Sites, b.IO, b.CPU, b.Total)
		return
	}
	for i, s := range b.Sites {
		if need&needIO != 0 {
			b.IO[i] = v.NumIOQueries(s)
		}
		if need&needCPU != 0 {
			b.CPU[i] = v.NumCPUQueries(s)
		}
		if need&needTotal != 0 {
			b.Total[i] = v.NumQueries(s)
		}
	}
}

// CostFunc estimates the processing cost of executing q at each of a
// list of sites. All the paper's allocation algorithms are expressed
// this way (Section 4: "all of the allocation algorithms presented here
// can be viewed as choosing the processing site with the minimum
// estimated processing cost").
type CostFunc interface {
	Name() string
	// Costs writes the cost of executing q, which arrived at site
	// arrival, at b.Sites[i] into b.Costs[i]. It reads the load view
	// through b, once for the whole list.
	Costs(q *workload.Query, arrival int, env *Env, b *Batch)
}

// Selector realizes Figure 3: it keeps the arrival site unless a remote
// site has strictly lower cost, scanning remote sites in round-robin
// order (the paper's one noted detail: "the 'foreach' loop that examines
// possible remote execution sites should scan these sites in a
// round-robin fashion"). An optional Tuning (antiherd.go) adds the
// imperfect-information defenses — hysteresis, power-of-K sampling,
// probabilistic tie-breaking; with the zero Tuning the selector's
// decisions and random-stream consumption are bit-identical to the
// plain Figure-3 loop.
type Selector struct {
	cost   CostFunc
	cursor []int // per-arrival-site scan start

	tune   Tuning
	stream *rng.Stream // drives PowerK sampling and RandomTies; nil otherwise

	// batch lists the sites one decision costs: the arrival site first
	// when it is allowed, then the remotes.
	batch Batch
}

var _ Policy = (*Selector)(nil)

// NewSelector wraps a cost function in the Figure-3 selection loop for a
// system of numSites sites.
func NewSelector(cost CostFunc, numSites int) *Selector {
	return &Selector{cost: cost, cursor: make([]int, numSites)}
}

// Name returns the wrapped cost function's name.
func (sel *Selector) Name() string { return sel.cost.Name() }

// Select implements function SelectSite of Figure 3, generalized to an
// optional candidate set and an optional liveness mask: the arrival
// site is kept unless a strictly cheaper candidate exists; when the
// arrival site holds no copy (or is down), the first candidate scanned
// seeds the minimum instead. NoSite when no candidate is allowed.
//
// One decision lists its sites — the arrival site when allowed, then
// the remotes in scan order — reads the load view once, and costs the
// list in one batch before comparing. The anti-herd knobs slot into the
// same path: PowerK lists a random sample of the eligible remotes
// instead of all of them, RandomTies breaks equal-cost remote ties
// uniformly at random (reservoir sampling) instead of first in list
// order, and Hysteresis demands the best remote undercut the local cost
// by a relative margin before the query transfers.
func (sel *Selector) Select(q *workload.Query, arrival int, env *Env) int {
	localOK := env.allowed(arrival)
	b := &sel.batch
	b.Sites = b.Sites[:0]
	if localOK {
		b.Sites = append(b.Sites, arrival)
	}
	first := len(b.Sites)
	b.Sites = sel.appendRemotes(b.Sites, arrival, env)
	b.price(sel.cost, q, arrival, env)
	sites, costs := b.Sites, b.Costs
	if env.Penalty != nil {
		for i, s := range sites {
			costs[i] += env.Penalty(s)
		}
	}
	best := NoSite
	minCost := math.Inf(1)
	ties := 0
	for i := first; i < len(sites); i++ {
		switch cur := costs[i]; {
		case cur < minCost:
			best, minCost, ties = sites[i], cur, 1
		case sel.tune.RandomTies && best != NoSite && cur == minCost:
			ties++
			if sel.stream.Intn(ties) == 0 {
				best = sites[i]
			}
		}
	}
	if !localOK {
		return best
	}
	if best != NoSite && minCost < costs[0]*(1-sel.tune.Hysteresis) {
		return best
	}
	return arrival
}

// appendRemotes appends to dst the remote sites one decision costs:
// every live remote candidate in round-robin order from the arrival
// site's cursor, or with PowerK a random sample of them.
func (sel *Selector) appendRemotes(dst []int, arrival int, env *Env) []int {
	if sel.tune.PowerK > 0 {
		return sel.appendSample(dst, arrival, env)
	}
	start := sel.cursor[arrival]
	sel.cursor[arrival]++
	cands, up := env.Candidates, env.Up
	n := env.NumSites
	if cands != nil {
		n = len(cands)
	}
	if n == 0 {
		return dst
	}
	// Scan positions split up to n-1, then 0 up to split: the
	// round-robin order without a division per site.
	split := start % n
	dst = appendLive(dst, split, n, arrival, cands, up)
	return appendLive(dst, 0, split, arrival, cands, up)
}

// appendLive appends to dst the live sites other than arrival at scan
// positions lo up to hi-1: the site numbers themselves when cands is
// nil, cands' entries otherwise.
func appendLive(dst []int, lo, hi, arrival int, cands []int, up []bool) []int {
	for i := lo; i < hi; i++ {
		s := i
		if cands != nil {
			s = cands[i]
		}
		if s != arrival && (up == nil || up[s]) {
			dst = append(dst, s)
		}
	}
	return dst
}

// bnqCost is Figure 4: the number of queries at the site.
type bnqCost struct{}

func (bnqCost) Name() string { return "BNQ" }

func (bnqCost) Costs(_ *workload.Query, _ int, env *Env, b *Batch) {
	b.read(env.View, needTotal)
	for i, n := range b.Total {
		b.Costs[i] = float64(n)
	}
}

// bnqrdCost is Figure 5: the number of queries of the same bound as q.
type bnqrdCost struct{}

func (bnqrdCost) Name() string { return "BNQRD" }

func (bnqrdCost) Costs(q *workload.Query, _ int, env *Env, b *Batch) {
	if QueryBound(q, env.DiskTime, env.NumDisks) == workload.IOBound {
		b.read(env.View, needIO)
		for i, n := range b.IO {
			b.Costs[i] = float64(n)
		}
		return
	}
	b.read(env.View, needCPU)
	for i, n := range b.CPU {
		b.Costs[i] = float64(n)
	}
}

// workCost balances outstanding estimated work in two dimensions: the
// cost of placing q at s is the backlog of s's bottleneck resource after
// accepting q (CPU work scaled by speed; disk work by the disk count).
// It needs a WorkView; against a plain count view it degrades to BNQ.
type workCost struct{}

func (workCost) Name() string { return "WORK" }

func (workCost) Costs(q *workload.Query, arrival int, env *Env, b *Batch) {
	wv, ok := env.View.(loadinfo.WorkView)
	if !ok {
		bnqCost{}.Costs(q, arrival, env, b)
		return
	}
	cpuDemand := q.EstCPUDemand()
	ioDemand := q.EstDiskDemand(env.DiskTime)
	disks := float64(env.NumDisks)
	speeds, out := env.CPUSpeeds, b.Costs
	for i, s := range b.Sites {
		cpuBacklog := wv.CPUWork(s) + cpuDemand
		if speeds != nil {
			cpuBacklog /= speeds[s]
		}
		ioBacklog := (wv.IOWork(s) + ioDemand) / disks
		out[i] = math.Max(cpuBacklog, ioBacklog)
	}
}

// lertCost is Figure 6: the estimated response time of q at the site,
// combining its service demands, the waiting implied by competing queries
// of the same bound, and the message costs of remote execution.
type lertCost struct{}

func (lertCost) Name() string { return "LERT" }

func (lertCost) Costs(q *workload.Query, arrival int, env *Env, b *Batch) {
	cpuDemand := q.EstCPUDemand()
	ioTime := q.EstDiskDemand(env.DiskTime)
	netTime := env.NetTime(q)
	disks := float64(env.NumDisks)
	b.read(env.View, needIO|needCPU)
	speeds, cpuN, ioN, out := env.CPUSpeeds, b.CPU, b.IO, b.Costs
	for i, s := range b.Sites {
		// In the heterogeneity extension the query's (and its
		// competitors') CPU bursts shrink by the site's speed factor;
		// homogeneous sites reduce to Figure 6 verbatim.
		cpuTime := cpuDemand
		if speeds != nil {
			cpuTime /= speeds[s]
		}
		cpuWait := cpuTime * float64(cpuN[i])
		ioWait := ioTime * float64(ioN[i]) / disks
		cost := cpuTime + cpuWait + ioTime + ioWait
		if s != arrival {
			cost += netTime
		}
		out[i] = cost
	}
}
