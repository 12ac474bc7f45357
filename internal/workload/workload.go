// Package workload models the paper's multi-class query workload
// (Sections 1.2.3 and 2). Each query class has its own per-page CPU
// demand, mean read count, and message length; terminals draw a class for
// each new query from the class distribution function.
package workload

import (
	"fmt"
	"math"

	"dqalloc/internal/rng"
)

// Bound classifies a query as I/O- or CPU-bound using the rule of Section
// 4.2: the per-disk I/O demand (disk access time divided by the number of
// disks) is compared with the per-page CPU demand.
type Bound int

const (
	// IOBound queries demand more I/O than CPU per page.
	IOBound Bound = iota + 1
	// CPUBound queries demand at least as much CPU as I/O per page.
	CPUBound
)

// String returns the classification name.
func (b Bound) String() string {
	switch b {
	case IOBound:
		return "io-bound"
	case CPUBound:
		return "cpu-bound"
	default:
		return "unknown"
	}
}

// Class describes one query class with the parameters of Table 2. In the
// simulations (Table 7) result_fraction, query_size and msg_time are
// folded into MsgLength, the constant time to ship a query to, or results
// back from, a remote site.
type Class struct {
	// Name labels the class in reports, e.g. "io" or "cpu".
	Name string
	// PageCPUTime is the mean CPU time to process one page read from disk.
	PageCPUTime float64
	// NumReads is the mean number of disk pages a query reads (i.e. mean
	// cycles through the I/O and CPU service centers).
	NumReads float64
	// MsgLength is the network time to transfer the query descriptor to a
	// remote site or to return its results (Table 7 uses 1.0).
	MsgLength float64
}

// Validate reports a configuration error, if any.
func (c Class) Validate() error {
	switch {
	case !(c.PageCPUTime >= 0):
		return fmt.Errorf("class %q: page CPU time %v is negative or NaN", c.Name, c.PageCPUTime)
	case !(c.NumReads >= 1):
		return fmt.Errorf("class %q: mean reads %v is below 1 or NaN", c.Name, c.NumReads)
	case !(c.MsgLength >= 0):
		return fmt.Errorf("class %q: message length %v is negative or NaN", c.Name, c.MsgLength)
	}
	return nil
}

// ValidateMix reports the first error in a class mix, if any: every
// class must be valid and probs[i], the probability that a new query
// belongs to classes[i], must be non-negative and sum to 1 (within a
// small tolerance). NaN fails every check.
func ValidateMix(classes []Class, probs []float64) error {
	if len(classes) == 0 {
		return fmt.Errorf("workload: no classes")
	}
	if len(probs) != len(classes) {
		return fmt.Errorf("workload: %d probabilities for %d classes", len(probs), len(classes))
	}
	sum := 0.0
	for i, p := range probs {
		if !(p >= 0) {
			return fmt.Errorf("workload: probability %v for class %d is negative or NaN", p, i)
		}
		sum += p
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return fmt.Errorf("workload: class probabilities sum to %v, want 1", sum)
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Bound classifies the class for a site with the given storage hardware.
func (c Class) Bound(diskTime float64, numDisks int) Bound {
	if diskTime/float64(numDisks) > c.PageCPUTime {
		return IOBound
	}
	return CPUBound
}

// MeanCPUDemand returns the class's mean total CPU requirement per query.
func (c Class) MeanCPUDemand() float64 { return c.NumReads * c.PageCPUTime }

// MeanDiskDemand returns the class's mean total disk requirement per
// query for the given mean page access time.
func (c Class) MeanDiskDemand(diskTime float64) float64 { return c.NumReads * diskTime }

// MeanServiceDemand returns the class's mean total service requirement
// (CPU plus disk) per query, excluding messages.
func (c Class) MeanServiceDemand(diskTime float64) float64 {
	return c.MeanCPUDemand() + c.MeanDiskDemand(diskTime)
}

// EstimateMode selects what the allocator sees as a query's resource
// demands — the output of the "query optimizer" of Section 1.2.2.
type EstimateMode int

const (
	// EstimateClassMean gives the allocator the class-mean demands, which
	// is what a cost-based optimizer would predict. This is the default.
	EstimateClassMean EstimateMode = iota + 1
	// EstimateActual gives the allocator the query's exact sampled
	// demands — an oracle upper bound used in ablations.
	EstimateActual
)

// String returns the mode name.
func (m EstimateMode) String() string {
	switch m {
	case EstimateClassMean:
		return "class-mean"
	case EstimateActual:
		return "actual"
	default:
		return "unknown"
	}
}

// Query is one task instance flowing through the system.
type Query struct {
	ID    uint64
	Class int // index into the class table
	Home  int // site whose terminal submitted the query
	Exec  int // chosen execution site (set by the allocator)
	// Object identifies the data the query references; only meaningful in
	// the partially replicated extension (zero otherwise).
	Object int

	// ReadsTotal is the sampled number of disk pages this query reads.
	ReadsTotal int
	// ReadsDone counts completed read/process cycles.
	ReadsDone int

	// EstReads and EstPageCPU are the optimizer's estimates available to
	// the allocation policies.
	EstReads   float64
	EstPageCPU float64

	// SubmitTime is when the query left its terminal; Service accumulates
	// the actual service it has received (disk + CPU + transmissions),
	// NetService the transmission component alone, and DiskService the
	// disk component alone (so the CPU share is derivable).
	SubmitTime  float64
	Service     float64
	NetService  float64
	DiskService float64

	// PageCPU overrides the class's per-page CPU mean when positive. The
	// parallel-query extension sets it on operator carriers (a join's
	// per-page cost differs from a scan's); zero everywhere else, which
	// leaves the class mean in force.
	PageCPU float64

	// Migrations counts mid-execution moves (migration extension).
	Migrations int

	// Defers counts admission-control deferrals consumed so far (overload
	// admission extension): each time an overloaded site bounces the
	// query it is parked and resubmitted, up to the configured budget.
	Defers int

	// Degraded marks an allocation that landed at a site holding no copy
	// of the query's fragment (self-healing replication extension): the
	// site must fetch the fragment over the ring before executing. Reset
	// on every allocation attempt.
	Degraded bool

	// Attempt is scratch space for the system layer's lifecycle record
	// (deadline aborts, hedge races, fault watchdogs and operator carriers
	// need to know where a query currently is). The workload package
	// assigns it no meaning.
	Attempt any
}

// ExecService returns the pure execution service received (disk + CPU,
// excluding message transmissions) — the paper's "execution time".
func (q *Query) ExecService() float64 { return q.Service - q.NetService }

// EstCPUDemand returns the estimated total CPU requirement.
func (q *Query) EstCPUDemand() float64 { return q.EstReads * q.EstPageCPU }

// EstDiskDemand returns the estimated total disk requirement for the
// given mean page access time.
func (q *Query) EstDiskDemand(diskTime float64) float64 { return q.EstReads * diskTime }

// Remote reports whether the query executes away from its home site.
func (q *Query) Remote() bool { return q.Exec != q.Home }

// Generator samples new queries: it draws the class from the class
// distribution function and the read count from an exponential
// distribution with the class mean (Section 5.1).
type Generator struct {
	classes []Class
	probs   []float64
	mode    EstimateMode
	stream  *rng.Stream
	nextID  uint64
}

// NewGenerator builds a generator over the given classes. probs[i] is the
// probability that a new query belongs to class i; see ValidateMix.
func NewGenerator(classes []Class, probs []float64, mode EstimateMode, stream *rng.Stream) (*Generator, error) {
	if err := ValidateMix(classes, probs); err != nil {
		return nil, err
	}
	if mode != EstimateClassMean && mode != EstimateActual {
		return nil, fmt.Errorf("workload: invalid estimate mode %d", mode)
	}
	if stream == nil {
		return nil, fmt.Errorf("workload: nil random stream")
	}
	return &Generator{classes: classes, probs: probs, mode: mode, stream: stream}, nil
}

// Classes returns the generator's class table (shared, do not mutate).
func (g *Generator) Classes() []Class { return g.classes }

// New samples a query submitted by a terminal at the given home site at
// the given simulated time.
func (g *Generator) New(home int, now float64) *Query {
	q := new(Query)
	g.Fill(q, home, now)
	return q
}

// Fill samples a query exactly as New does, with the same draws, but
// writes it over *q instead of allocating — the entry point for callers
// that keep their queries in pooled records. Every field of *q is
// overwritten.
func (g *Generator) Fill(q *Query, home int, now float64) {
	g.build(q, g.sampleClass(), home, now)
}

// NewOfClass samples a query of a fixed class — the open-arrival
// extension's entry point, where each class has its own arrival source
// and therefore no class draw happens here. It consumes exactly one
// read-count draw from the generator's stream.
func (g *Generator) NewOfClass(class, home int, now float64) *Query {
	q := new(Query)
	g.FillOfClass(q, class, home, now)
	return q
}

// FillOfClass is NewOfClass writing over *q instead of allocating.
func (g *Generator) FillOfClass(q *Query, class, home int, now float64) {
	if class < 0 || class >= len(g.classes) {
		panic(fmt.Sprintf("workload: class %d out of range", class))
	}
	g.build(q, class, home, now)
}

func (g *Generator) build(q *Query, class, home int, now float64) {
	c := g.classes[class]
	reads := g.sampleReads(c.NumReads)
	// Clear and set in place: a composite literal assigned through q
	// would be built in a temporary and copied.
	*q = Query{}
	q.ID = g.nextID
	q.Class = class
	q.Home = home
	q.Exec = home
	q.ReadsTotal = reads
	q.SubmitTime = now
	g.nextID++
	switch g.mode {
	case EstimateActual:
		q.EstReads = float64(reads)
	default:
		q.EstReads = c.NumReads
	}
	q.EstPageCPU = c.PageCPUTime
}

// sampleClass draws a class index from the class distribution function.
func (g *Generator) sampleClass() int {
	u := g.stream.Float64()
	acc := 0.0
	for i, p := range g.probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(g.probs) - 1
}

// sampleReads draws the number of reads: exponential with the class mean,
// rounded to the nearest integer, with a floor of one read.
func (g *Generator) sampleReads(mean float64) int {
	n := int(math.Round(g.stream.Exp(mean)))
	if n < 1 {
		n = 1
	}
	return n
}
