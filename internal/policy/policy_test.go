package policy

import (
	"math"
	"strings"
	"testing"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// fixedView is a hand-set load view for policy tests.
type fixedView struct {
	io  []int
	cpu []int
}

func (v fixedView) NumQueries(s int) int    { return v.io[s] + v.cpu[s] }
func (v fixedView) NumIOQueries(s int) int  { return v.io[s] }
func (v fixedView) NumCPUQueries(s int) int { return v.cpu[s] }
func (v fixedView) ReadCounts(sites, io, cpu, total []int) {
	for i, s := range sites {
		io[i], cpu[i], total[i] = v.io[s], v.cpu[s], v.io[s]+v.cpu[s]
	}
}

var _ loadinfo.CountReader = fixedView{}

// perSiteView hides a view's bulk read, so policies read it per site.
type perSiteView struct{ loadinfo.View }

// countingView is a work view without a bulk read that counts every
// per-site read.
type countingView struct {
	wv    workView
	reads int
}

func (v *countingView) NumQueries(s int) int    { v.reads++; return v.wv.NumQueries(s) }
func (v *countingView) NumIOQueries(s int) int  { v.reads++; return v.wv.NumIOQueries(s) }
func (v *countingView) NumCPUQueries(s int) int { v.reads++; return v.wv.NumCPUQueries(s) }
func (v *countingView) CPUWork(s int) float64   { v.reads++; return v.wv.CPUWork(s) }
func (v *countingView) IOWork(s int) float64    { v.reads++; return v.wv.IOWork(s) }

// TestPerSiteReads: against a view without a bulk read, one decision
// reads each costed site once per count its cost function uses — BNQ
// the total, BNQRD the query's own bound, LERT both bounds, WORK both
// work amounts — so a wrapper counting a view's reads sees them all.
func TestPerSiteReads(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		cost    CostFunc
		perSite int
	}{{bnqCost{}, 1}, {bnqrdCost{}, 1}, {lertCost{}, 2}, {workCost{}, 2}} {
		v := &countingView{wv: workView{
			fixedView: fixedView{io: make([]int, n), cpu: make([]int, n)},
			cpuW:      make([]float64, n), ioW: make([]float64, n),
		}}
		if _, ok := loadinfo.View(v).(loadinfo.CountReader); ok {
			t.Fatal("countingView offers a bulk read")
		}
		env := testEnv(v, n)
		NewSelector(tc.cost, n).Select(ioQuery(), 3, env)
		if want := tc.perSite * n; v.reads != want {
			t.Errorf("%s: %d reads for one decision over %d sites, want %d", tc.cost.Name(), v.reads, n, want)
		}
		v.reads = 0
		probe, err := NewProbe(tc.cost, 2, rng.NewStream(1))
		if err != nil {
			t.Fatal(err)
		}
		probe.Select(cpuQuery(), 3, env)
		if want := tc.perSite * 3; v.reads != want {
			t.Errorf("%s: %d reads for one decision over 3 sites, want %d", probe.Name(), v.reads, want)
		}
	}
}

// siteCost costs one site through the batch CostFunc interface.
func siteCost(c CostFunc, q *workload.Query, s, arrival int, env *Env) float64 {
	b := Batch{Sites: []int{s}}
	b.price(c, q, arrival, env)
	return b.Costs[0]
}

func testEnv(v loadinfo.View, numSites int) *Env {
	return &Env{
		View:     v,
		NumSites: numSites,
		NumDisks: 2,
		DiskTime: 1,
		NetTime: func(q *workload.Query) float64 {
			return 2 // transfer + return, msg_length 1 each
		},
	}
}

func ioQuery() *workload.Query  { return &workload.Query{EstReads: 20, EstPageCPU: 0.05} }
func cpuQuery() *workload.Query { return &workload.Query{EstReads: 20, EstPageCPU: 1.0} }

func TestQueryBound(t *testing.T) {
	if QueryBound(ioQuery(), 1, 2) != workload.IOBound {
		t.Error("io query misclassified")
	}
	if QueryBound(cpuQuery(), 1, 2) != workload.CPUBound {
		t.Error("cpu query misclassified")
	}
	// Equality goes to CPU-bound (strict > in the rule).
	q := &workload.Query{EstReads: 20, EstPageCPU: 0.5}
	if QueryBound(q, 1, 2) != workload.CPUBound {
		t.Error("boundary query should be CPU-bound")
	}
}

func TestLocalAlwaysStaysHome(t *testing.T) {
	p, err := New(Local, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{9, 0, 0, 0}, cpu: []int{9, 0, 0, 0}}, 4)
	if got := p.Select(ioQuery(), 0, env); got != 0 {
		t.Errorf("LOCAL chose %d, want arrival site 0", got)
	}
	if p.Name() != "LOCAL" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestRandomUniform(t *testing.T) {
	p, err := New(Random, 4, rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: make([]int, 4), cpu: make([]int, 4)}, 4)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[p.Select(ioQuery(), 0, env)]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("site %d chosen %d/4000, want ~1000", s, c)
		}
	}
}

func TestRandomRequiresStream(t *testing.T) {
	if _, err := New(Random, 4, nil); err == nil {
		t.Error("RANDOM without stream accepted")
	}
}

func TestBNQPicksFewestQueries(t *testing.T) {
	p, err := New(BNQ, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{2, 1, 0, 3}, cpu: []int{1, 1, 1, 0}}, 4)
	// Totals: 3, 2, 1, 3 — site 2 wins regardless of class.
	if got := p.Select(ioQuery(), 0, env); got != 2 {
		t.Errorf("BNQ chose %d, want 2", got)
	}
	if got := p.Select(cpuQuery(), 3, env); got != 2 {
		t.Errorf("BNQ chose %d, want 2", got)
	}
}

func TestBNQKeepsArrivalOnTie(t *testing.T) {
	p, err := New(BNQ, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{1, 1, 1}, cpu: []int{0, 0, 0}}, 3)
	for arrival := 0; arrival < 3; arrival++ {
		if got := p.Select(ioQuery(), arrival, env); got != arrival {
			t.Errorf("tie from arrival %d sent query to %d", arrival, got)
		}
	}
}

func TestBNQRDUsesClassCounts(t *testing.T) {
	p, err := New(BNQRD, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Site 1 is loaded with CPU-bound work but has no I/O-bound queries;
	// site 2 is the reverse.
	env := testEnv(fixedView{io: []int{2, 0, 5}, cpu: []int{2, 5, 0}}, 3)
	if got := p.Select(ioQuery(), 0, env); got != 1 {
		t.Errorf("BNQRD sent io query to %d, want 1 (fewest io-bound)", got)
	}
	if got := p.Select(cpuQuery(), 0, env); got != 2 {
		t.Errorf("BNQRD sent cpu query to %d, want 2 (fewest cpu-bound)", got)
	}
}

func TestLERTCostFunction(t *testing.T) {
	env := testEnv(fixedView{io: []int{3, 0}, cpu: []int{1, 2}}, 2)
	q := ioQuery() // cpuTime = 1, ioTime = 20
	var lert lertCost
	// Local site 0: 1 + 1*1 + 20 + 20*3/2 + 0 = 52.
	if got := siteCost(lert, q, 0, 0, env); math.Abs(got-52) > 1e-12 {
		t.Errorf("local cost = %v, want 52", got)
	}
	// Remote site 1: 1 + 1*2 + 20 + 0 + 2 = 25.
	if got := siteCost(lert, q, 1, 0, env); math.Abs(got-25) > 1e-12 {
		t.Errorf("remote cost = %v, want 25", got)
	}
}

func TestLERTAvoidsUnprofitableTransfer(t *testing.T) {
	p, err := New(LERT, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Loads almost equal: transferring would win by less than the message
	// cost, so LERT must stay local where BNQ would move.
	env := testEnv(fixedView{io: []int{1, 0}, cpu: []int{0, 0}}, 2)
	q := &workload.Query{EstReads: 1, EstPageCPU: 0.05} // tiny query
	// Local: 0.05 + 0 + 1 + 1*1/2 = 1.55. Remote: 0.05 + 1 + 0 + 2 = 3.05.
	if got := p.Select(q, 0, env); got != 0 {
		t.Errorf("LERT transferred a tiny query (chose %d), message cost ignored", got)
	}

	bnq, err := New(BNQ, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := bnq.Select(q, 0, env); got != 1 {
		t.Errorf("BNQ should transfer here (chose %d)", got)
	}
}

func TestLERTPrefersIdleRemote(t *testing.T) {
	p, err := New(LERT, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{4, 0}, cpu: []int{0, 0}}, 2)
	if got := p.Select(ioQuery(), 0, env); got != 1 {
		t.Errorf("LERT stayed at loaded site (chose %d)", got)
	}
}

func TestSelectorRoundRobinRotation(t *testing.T) {
	sel := NewSelector(bnqCost{}, 3)
	// Sites 1 and 2 tie at zero load while arrival site 0 is loaded; the
	// round-robin cursor should alternate which tied site wins.
	env := testEnv(fixedView{io: []int{5, 0, 0}, cpu: []int{0, 0, 0}}, 3)
	first := sel.Select(ioQuery(), 0, env)
	second := sel.Select(ioQuery(), 0, env)
	third := sel.Select(ioQuery(), 0, env)
	if first == second && second == third {
		t.Errorf("selector always picks %d; round-robin scan not rotating", first)
	}
	for _, got := range []int{first, second, third} {
		if got == 0 {
			t.Error("selector chose the loaded arrival site")
		}
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{Local, "LOCAL"}, {Random, "RANDOM"}, {BNQ, "BNQ"},
		{BNQRD, "BNQRD"}, {LERT, "LERT"}, {Kind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(BNQ, 0, nil); err == nil {
		t.Error("numSites 0 accepted")
	}
	if _, err := New(Kind(99), 3, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, kind := range []Kind{Local, BNQ, BNQRD, LERT} {
		p, err := New(kind, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != kind.String() {
			t.Errorf("policy name %q != kind %q", p.Name(), kind)
		}
	}
}

// TestParseKind round-trips every Kind through its printed name in any
// case and with surrounding spaces, and rejects names that are not
// policies.
func TestParseKind(t *testing.T) {
	for k := Local; k <= Work; k++ {
		name := k.String()
		for _, in := range []string{name, strings.ToLower(name), " " + name + "\t"} {
			got, err := ParseKind(in)
			if err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, k)
			}
		}
	}
	for _, bad := range []string{"", "unknown", "FIFO", "LER T", "LERT2"} {
		if k, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", bad, k)
		}
	}
}
