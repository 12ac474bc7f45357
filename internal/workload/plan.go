package workload

// This file is the operator-tree query model of the parallel-query
// extension (the Garofalakis & Ioannidis direction): instead of one
// monolithic reads×(disk→CPU) loop, a query may be a small tree of
// relational operators — scans over fragments, filters, and joins — each
// carrying its own per-resource demands (disk reads, per-page CPU,
// output bytes). The system layer schedules the operators onto sites and
// ships intermediate results over the ring; this package only defines
// the plan representation, its validation, the fragment-and-replicate
// share expansion, and the deterministic plan sampler.

import (
	"fmt"
	"math"

	"dqalloc/internal/replica"
	"dqalloc/internal/rng"
)

// OpKind enumerates the operator types a plan may contain.
type OpKind int8

const (
	// OpScan reads a fragment's pages from disk.
	OpScan OpKind = iota + 1
	// OpFilter re-reads its input's pages, applying a predicate.
	OpFilter
	// OpJoin combines two or more inputs; its read count is the staged
	// input volume.
	OpJoin
)

// String returns the operator-kind name.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpFilter:
		return "filter"
	case OpJoin:
		return "join"
	default:
		return "unknown"
	}
}

// MaxPlanOps bounds a plan's operator count; anything larger is a
// malformed (or adversarial) plan, not a query.
const MaxPlanOps = 64

// Operator is one node of a query plan. Its resource demands mirror the
// monolithic query's: Reads disk pages, each followed by an
// exponentially distributed CPU burst with mean PageCPU.
type Operator struct {
	// Kind is the operator type.
	Kind OpKind
	// Reads is the number of disk pages the operator processes (≥ 1).
	Reads int
	// PageCPU is the mean per-page CPU demand; 0 means the query class's
	// PageCPUTime applies (scans use 0, joins and filters carry their
	// own cheaper per-page costs).
	PageCPU float64
	// OutPages is the number of result pages the operator produces.
	OutPages int
	// OutBytes is the network size of the operator's output when it must
	// ship to a consumer at another site.
	OutBytes float64
	// Frag identifies the fragment a scan reads; -1 for non-scans.
	Frag int
	// DOP requests a degree of parallelism for the operator: 0 lets the
	// allocation policy choose, 1 forces a single instance, and k > 1
	// forces a k-way fragment-and-replicate split. Only joins may exceed 1.
	DOP int
	// Inputs lists the operator's child node indices (empty for scans).
	// Plans from PlanGen share their Inputs slices: treat them as
	// read-only, and assign a fresh slice to change an operator's inputs.
	Inputs []int
}

// Plan is one query's operator tree. Ops[Root] produces the final
// result; every other operator's output is consumed by exactly one
// parent.
type Plan struct {
	Ops  []Operator
	Root int
}

// finiteNonNeg reports whether x is a finite, non-negative float.
func finiteNonNeg(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0
}

// Validate checks the plan's structural and numeric sanity: it must be a
// single tree rooted at Root (every non-root consumed exactly once, no
// cycles, everything reachable), every operator's demands must be finite
// and in range, scan fragment ids must lie in [0, numFrags) when
// numFrags > 0, and no DOP may exceed numSites (or request a split of a
// non-join). It is the admission gate between plan generation — or any
// external plan source — and the execution engine.
func (p *Plan) Validate(numFrags, numSites int) error {
	n := len(p.Ops)
	if n < 1 {
		return fmt.Errorf("workload: empty plan")
	}
	if n > MaxPlanOps {
		return fmt.Errorf("workload: plan has %d operators, max %d", n, MaxPlanOps)
	}
	if p.Root < 0 || p.Root >= n {
		return fmt.Errorf("workload: plan root %d out of range [0,%d)", p.Root, n)
	}
	// The bound n <= MaxPlanOps lets every scratch array live on the
	// stack, so validating a plan allocates nothing.
	var consumers [MaxPlanOps]int
	for i, op := range p.Ops {
		switch op.Kind {
		case OpScan:
			if len(op.Inputs) != 0 {
				return fmt.Errorf("workload: op %d: scan with %d inputs", i, len(op.Inputs))
			}
			if op.Frag < 0 {
				return fmt.Errorf("workload: op %d: scan fragment %d < 0", i, op.Frag)
			}
			if numFrags > 0 && op.Frag >= numFrags {
				return fmt.Errorf("workload: op %d: scan fragment %d out of range [0,%d)", i, op.Frag, numFrags)
			}
		case OpFilter:
			if len(op.Inputs) != 1 {
				return fmt.Errorf("workload: op %d: filter with %d inputs, want 1", i, len(op.Inputs))
			}
			if op.Frag != -1 {
				return fmt.Errorf("workload: op %d: non-scan with fragment %d, want -1", i, op.Frag)
			}
		case OpJoin:
			if len(op.Inputs) < 2 {
				return fmt.Errorf("workload: op %d: join with %d inputs, want >= 2", i, len(op.Inputs))
			}
			if op.Frag != -1 {
				return fmt.Errorf("workload: op %d: non-scan with fragment %d, want -1", i, op.Frag)
			}
		default:
			return fmt.Errorf("workload: op %d: invalid kind %d", i, op.Kind)
		}
		if op.Reads < 1 {
			return fmt.Errorf("workload: op %d: reads %d < 1", i, op.Reads)
		}
		if op.OutPages < 0 {
			return fmt.Errorf("workload: op %d: negative output pages %d", i, op.OutPages)
		}
		if !finiteNonNeg(op.PageCPU) {
			return fmt.Errorf("workload: op %d: page CPU %v not finite and non-negative", i, op.PageCPU)
		}
		if !finiteNonNeg(op.OutBytes) {
			return fmt.Errorf("workload: op %d: output bytes %v not finite and non-negative", i, op.OutBytes)
		}
		if op.DOP < 0 || (numSites > 0 && op.DOP > numSites) {
			return fmt.Errorf("workload: op %d: DOP %d outside [0,%d]", i, op.DOP, numSites)
		}
		if op.DOP > 1 && op.Kind != OpJoin {
			return fmt.Errorf("workload: op %d: DOP %d on a %s (only joins split)", i, op.DOP, op.Kind)
		}
		for _, in := range op.Inputs {
			if in < 0 || in >= n {
				return fmt.Errorf("workload: op %d: input %d out of range [0,%d)", i, in, n)
			}
			if in == i {
				return fmt.Errorf("workload: op %d: self input", i)
			}
			consumers[in]++
		}
	}
	if consumers[p.Root] != 0 {
		return fmt.Errorf("workload: root %d is consumed by another operator", p.Root)
	}
	for i, c := range consumers[:n] {
		if i != p.Root && c != 1 {
			return fmt.Errorf("workload: op %d consumed %d times, want 1", i, c)
		}
	}
	// Reachability from the root doubles as the cycle check: with every
	// non-root consumed exactly once there are n-1 edges, so visiting all
	// n nodes from the root proves the graph is a tree.
	// Each node is pushed at most once, so the stack never exceeds n.
	var seen [MaxPlanOps]bool
	var stack [MaxPlanOps]int
	stack[0] = p.Root
	top := 1
	seen[p.Root] = true
	visited := 1
	for top > 0 {
		top--
		i := stack[top]
		for _, in := range p.Ops[i].Inputs {
			if !seen[in] {
				seen[in] = true
				visited++
				stack[top] = in
				top++
			}
		}
	}
	if visited != n {
		return fmt.Errorf("workload: plan is not a single tree: %d of %d ops reachable from root", visited, n)
	}
	return nil
}

// Parent returns, for each operator, the node consuming its output (-1
// for the root). Valid plans only.
func (p *Plan) Parent() []int {
	return p.ParentInto(nil)
}

// ParentInto is Parent writing into buf's storage (grown when too short)
// and returning the filled slice.
func (p *Plan) ParentInto(buf []int) []int {
	parent := buf[:0]
	for range p.Ops {
		parent = append(parent, -1)
	}
	for i := range parent {
		parent[i] = -1
	}
	for i, op := range p.Ops {
		for _, in := range op.Inputs {
			parent[in] = i
		}
	}
	return parent
}

// FragRep is a fragment-and-replicate share assignment: the fragment's
// pages are partitioned across Sites (Shares[i] pages at Sites[i],
// summing exactly to the total), while the join's other input is
// replicated to every listed site.
type FragRep struct {
	// Sites are the scan sites, a subset of the offered candidates.
	Sites []int
	// Shares[i] is the page count scanned at Sites[i]; every share is at
	// least one page and the shares sum to the fragment's total.
	Shares []int
	// Degraded marks the fallback: none of the offered sites held a copy
	// of the fragment, so the whole scan collapses onto the first offered
	// site, which must fetch the fragment before reading (the degraded
	// remote read of the replication extension).
	Degraded bool
}

// ExpandFragRep partitions a fragment scan of the given page count
// across the offered sites for a fragment-and-replicate join. When pl is
// non-nil only sites holding a copy of frag receive shares; if no
// offered site holds one, the expansion degrades to a single-site scan
// at the first offered site (flagged Degraded so the engine can fetch
// the fragment first). The share count never exceeds the page count, so
// every share is at least one page, and the shares always sum exactly to
// pages — every input page is covered by exactly one site's shipment
// set.
func ExpandFragRep(pl *replica.Placement, frag, pages int, sites []int) (FragRep, error) {
	return ExpandFragRepInto(pl, frag, pages, sites, nil, nil)
}

// ExpandFragRepInto is ExpandFragRep building the result's Sites and
// Shares in the storage of siteBuf and shareBuf (grown when too short),
// so a caller reusing them across expansions allocates nothing.
func ExpandFragRepInto(pl *replica.Placement, frag, pages int, sites, siteBuf, shareBuf []int) (FragRep, error) {
	if pages < 1 {
		return FragRep{}, fmt.Errorf("workload: fragment expansion of %d pages", pages)
	}
	if len(sites) == 0 {
		return FragRep{}, fmt.Errorf("workload: fragment expansion over no sites")
	}
	// The offered lists are a handful of sites, so the quadratic
	// duplicate scan beats building a set.
	for i, s := range sites {
		if s < 0 {
			return FragRep{}, fmt.Errorf("workload: fragment expansion site %d < 0", s)
		}
		for _, prev := range sites[:i] {
			if prev == s {
				return FragRep{}, fmt.Errorf("workload: duplicate expansion site %d", s)
			}
		}
	}
	out := FragRep{Sites: siteBuf[:0], Shares: shareBuf[:0]}
	if pl != nil {
		if frag < 0 || frag >= pl.NumObjects() {
			return FragRep{}, fmt.Errorf("workload: fragment %d out of range [0,%d)", frag, pl.NumObjects())
		}
		for _, s := range sites {
			if pl.Holds(s, frag) {
				out.Sites = append(out.Sites, s)
			}
		}
		if len(out.Sites) == 0 {
			// Degraded fallback: no offered site holds the fragment.
			out.Sites = append(out.Sites, sites[0])
			out.Shares = append(out.Shares, pages)
			out.Degraded = true
			return out, nil
		}
	} else {
		out.Sites = append(out.Sites, sites...)
	}
	k := len(out.Sites)
	if k > pages {
		k = pages
	}
	out.Sites = out.Sites[:k]
	base, extra := pages/k, pages%k
	for i := 0; i < k; i++ {
		share := base
		if i < extra {
			share++
		}
		out.Shares = append(out.Shares, share)
	}
	return out, nil
}

// ClampPages rounds a fractional page count to at least one page.
func ClampPages(x float64) int {
	n := int(math.Round(x))
	if n < 1 {
		return 1
	}
	return n
}

// PlanGenConfig parameterizes the deterministic plan sampler.
type PlanGenConfig struct {
	// JoinProb is the probability a submitted query becomes a join tree;
	// otherwise it stays a single-scan plan (observably the monolithic
	// query).
	JoinProb float64
	// FilterProb is the probability a join tree gets a filter above the
	// join.
	FilterProb float64
	// SelScan and SelJoin are the scan and join selectivities: output
	// pages per input page.
	SelScan, SelJoin float64
	// JoinPageCPU and FilterPageCPU are the per-page CPU means of join
	// and filter operators (scans use the query class's PageCPUTime).
	JoinPageCPU, FilterPageCPU float64
	// ShipBytesPerPage converts an operator's output pages into the
	// network size of its intermediate-result shipment.
	ShipBytesPerPage float64
	// NumFrags is the fragment count extra scans sample from; 0 means an
	// unfragmented database (every scan reads fragment 0).
	NumFrags int
}

// PlanGen samples operator trees on its own dedicated random stream, so
// runs without the parallel subsystem never see its draws.
type PlanGen struct {
	cfg    PlanGenConfig
	stream *rng.Stream
}

// NewPlanGen builds a sampler over the given dedicated stream.
func NewPlanGen(cfg PlanGenConfig, stream *rng.Stream) (*PlanGen, error) {
	if stream == nil {
		return nil, fmt.Errorf("workload: nil plan stream")
	}
	return &PlanGen{cfg: cfg, stream: stream}, nil
}

// Every join tree PlanGen builds has the same shape, so its plans share
// these read-only Inputs slices.
var (
	joinInputs   = []int{0, 1}
	filterInputs = []int{2}
)

// New samples a plan for query q. meanReads is the class's mean read
// count, driving the second scan's size. With probability 1−JoinProb
// the result is a single scan carrying exactly q's sampled demands — a
// plan the engine treats as the monolithic query, so a JoinProb of 0
// reproduces the paper's workload bit for bit. The plan's Inputs slices
// are shared with every other generated plan (see Operator.Inputs).
func (g *PlanGen) New(q *Query, meanReads float64) Plan {
	return g.NewInto(q, meanReads, nil)
}

// NewInto is New building the plan's operators in ops' storage (grown
// when too short), with the identical draws; a caller reusing ops across
// plans allocates nothing once it holds four operators.
func (g *PlanGen) NewInto(q *Query, meanReads float64, ops []Operator) Plan {
	ops = ops[:0]
	if !g.stream.Bernoulli(g.cfg.JoinProb) {
		return Plan{Ops: append(ops, Operator{Kind: OpScan, Reads: q.ReadsTotal, Frag: q.Object})}
	}
	rightReads := int(math.Round(g.stream.Exp(meanReads)))
	if rightReads < 1 {
		rightReads = 1
	}
	rightFrag := 0
	if g.cfg.NumFrags > 0 {
		rightFrag = g.stream.Intn(g.cfg.NumFrags)
	}
	filter := g.stream.Bernoulli(g.cfg.FilterProb)

	left := Operator{Kind: OpScan, Reads: q.ReadsTotal, Frag: q.Object}
	left.OutPages = ClampPages(g.cfg.SelScan * float64(left.Reads))
	left.OutBytes = float64(left.OutPages) * g.cfg.ShipBytesPerPage
	right := Operator{Kind: OpScan, Reads: rightReads, Frag: rightFrag}
	right.OutPages = ClampPages(g.cfg.SelScan * float64(right.Reads))
	right.OutBytes = float64(right.OutPages) * g.cfg.ShipBytesPerPage
	join := Operator{
		Kind:    OpJoin,
		Reads:   left.OutPages + right.OutPages,
		PageCPU: g.cfg.JoinPageCPU,
		Frag:    -1,
		Inputs:  joinInputs,
	}
	join.OutPages = ClampPages(g.cfg.SelJoin * float64(join.Reads))
	join.OutBytes = float64(join.OutPages) * g.cfg.ShipBytesPerPage
	ops = append(ops, left, right, join)
	root := 2
	if filter {
		f := Operator{
			Kind:    OpFilter,
			Reads:   join.OutPages,
			PageCPU: g.cfg.FilterPageCPU,
			Frag:    -1,
			Inputs:  filterInputs,
		}
		f.OutPages = ClampPages(g.cfg.SelScan * float64(f.Reads))
		f.OutBytes = float64(f.OutPages) * g.cfg.ShipBytesPerPage
		ops = append(ops, f)
		root = 3
	}
	return Plan{Ops: ops, Root: root}
}
