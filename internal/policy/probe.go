package policy

import (
	"fmt"
	"math"
	"strconv"

	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file adds limited-information allocation policies. The paper
// assumes every site knows all loads and defers the design of the
// information-exchange policy (Section 4.4). Probing policies answer the
// dual question: how little information is enough? Instead of a global
// view they inspect the arrival site plus k randomly probed remote
// sites at decision time — the scheme classically studied by Eager,
// Lazowska & Zahorjan. Combined with the periodic-broadcast views in
// internal/loadinfo, they bracket the paper's perfect-information
// assumption from both sides.

// Probe wraps a cost function in a sampled variant of the Figure-3
// selector: the arrival site competes against k probed remote candidate
// sites rather than all of them.
type Probe struct {
	cost   CostFunc
	k      int
	stream *rng.Stream

	// batch lists the sites one decision costs: the arrival site first
	// when it is allowed, then the probes.
	batch Batch
}

var _ Policy = (*Probe)(nil)

// NewProbe builds a probing policy around cost with k probes per
// decision.
func NewProbe(cost CostFunc, k int, stream *rng.Stream) (*Probe, error) {
	if cost == nil {
		return nil, fmt.Errorf("policy: nil cost function")
	}
	if k < 1 {
		return nil, fmt.Errorf("policy: probe count %d < 1", k)
	}
	if stream == nil {
		return nil, fmt.Errorf("policy: probing needs a random stream")
	}
	return &Probe{cost: cost, k: k, stream: stream}, nil
}

// Name returns e.g. "PROBE2-LERT".
func (p *Probe) Name() string {
	return "PROBE" + strconv.Itoa(p.k) + "-" + p.cost.Name()
}

// Select keeps the arrival site unless one of k probed candidates is
// strictly cheaper. NoSite when neither the arrival site nor any pool
// member is an allowed (live, copy-holding) execution site.
func (p *Probe) Select(q *workload.Query, arrival int, env *Env) int {
	b := &p.batch
	b.Sites = b.Sites[:0]
	if env.allowed(arrival) {
		b.Sites = append(b.Sites, arrival)
	}
	first := len(b.Sites)
	pool := remotePool(arrival, env)
	k := min(p.k, len(pool))
	// Partial Fisher–Yates: draw k distinct probes from the pool.
	for i := 0; i < k; i++ {
		j := i + p.stream.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	b.Sites = append(b.Sites, pool[:k]...)
	b.price(p.cost, q, arrival, env)
	best := NoSite
	minCost := math.Inf(1)
	if first == 1 {
		best, minCost = arrival, b.Costs[0]
	}
	for i := first; i < len(b.Sites); i++ {
		if b.Costs[i] < minCost {
			best, minCost = b.Sites[i], b.Costs[i]
		}
	}
	if best < 0 && len(pool) > 0 {
		// Arrival cannot execute and no probe hit: first pool entry.
		best = pool[0]
	}
	return best
}

// remotePool lists the sites a probing policy may probe: the allowed
// (copy-holding, live) sites minus the arrival site. When that leaves
// nothing but an allowed arrival site, the pool is the arrival site
// alone; when nothing at all is allowed it is empty. The slice is
// freshly allocated each call; callers may reorder it freely.
func remotePool(arrival int, env *Env) []int {
	var pool []int
	if env.Candidates != nil {
		pool = make([]int, 0, len(env.Candidates))
		for _, s := range env.Candidates {
			if s != arrival && env.siteUp(s) {
				pool = append(pool, s)
			}
		}
	} else {
		pool = make([]int, 0, env.NumSites-1)
		for s := 0; s < env.NumSites; s++ {
			if s != arrival && env.siteUp(s) {
				pool = append(pool, s)
			}
		}
	}
	if len(pool) == 0 && env.allowed(arrival) {
		return []int{arrival}
	}
	return pool
}

// Threshold is the classic two-level policy: a query is transferred only
// when the arrival site's query count reaches T; it then goes to the
// first of k probed sites whose count is below T, else stays local.
// It needs no global load view at all.
type Threshold struct {
	t      int
	k      int
	stream *rng.Stream
}

var _ Policy = (*Threshold)(nil)

// NewThreshold builds a threshold policy with local threshold t and k
// probes.
func NewThreshold(t, k int, stream *rng.Stream) (*Threshold, error) {
	if t < 1 {
		return nil, fmt.Errorf("policy: threshold %d < 1", t)
	}
	if k < 1 {
		return nil, fmt.Errorf("policy: probe count %d < 1", k)
	}
	if stream == nil {
		return nil, fmt.Errorf("policy: threshold policy needs a random stream")
	}
	return &Threshold{t: t, k: k, stream: stream}, nil
}

// Name returns e.g. "THRESH4x2".
func (p *Threshold) Name() string {
	return "THRESH" + strconv.Itoa(p.t) + "x" + strconv.Itoa(p.k)
}

// Select implements the threshold transfer rule. NoSite when nothing
// is allowed.
func (p *Threshold) Select(q *workload.Query, arrival int, env *Env) int {
	_ = q
	local := env.allowed(arrival)
	if local && env.View.NumQueries(arrival) < p.t {
		return arrival
	}
	pool := remotePool(arrival, env)
	k := p.k
	if k > len(pool) {
		k = len(pool)
	}
	for i := 0; i < k; i++ {
		j := i + p.stream.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		if env.View.NumQueries(pool[i]) < p.t {
			return pool[i]
		}
	}
	if local {
		return arrival
	}
	if len(pool) == 0 {
		return NoSite
	}
	return pool[0]
}

// NewProbeKind builds a probing wrapper around a built-in cost function
// selected by kind (BNQ, BNQRD or LERT).
func NewProbeKind(kind Kind, k int, stream *rng.Stream) (Policy, error) {
	var cost CostFunc
	switch kind {
	case BNQ:
		cost = bnqCost{}
	case BNQRD:
		cost = bnqrdCost{}
	case LERT:
		cost = lertCost{}
	default:
		return nil, fmt.Errorf("policy: kind %v has no cost function to probe", kind)
	}
	return NewProbe(cost, k, stream)
}
