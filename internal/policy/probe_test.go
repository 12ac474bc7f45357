package policy

import (
	"math"
	"strings"
	"testing"

	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

func TestProbeValidation(t *testing.T) {
	if _, err := NewProbe(nil, 1, rng.NewStream(1)); err == nil {
		t.Error("nil cost accepted")
	}
	if _, err := NewProbe(bnqCost{}, 0, rng.NewStream(1)); err == nil {
		t.Error("zero probes accepted")
	}
	if _, err := NewProbe(bnqCost{}, 1, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestProbeName(t *testing.T) {
	p, err := NewProbe(lertCost{}, 2, rng.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "PROBE2-LERT" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestProbeStaysLocalWhenNotBetter(t *testing.T) {
	p, err := NewProbe(bnqCost{}, 3, rng.NewStream(2))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{0, 1, 1, 1}, cpu: []int{0, 0, 0, 0}}, 4)
	for i := 0; i < 20; i++ {
		if got := p.Select(ioQuery(), 0, env); got != 0 {
			t.Fatalf("probe left the cheapest (arrival) site for %d", got)
		}
	}
}

func TestProbeFindsIdleSiteWithFullCoverage(t *testing.T) {
	// k = numSites-1 probes see everything: behaves like the full
	// selector.
	p, err := NewProbe(bnqCost{}, 3, rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{5, 2, 0, 2}, cpu: []int{0, 0, 0, 0}}, 4)
	for i := 0; i < 20; i++ {
		if got := p.Select(ioQuery(), 0, env); got != 2 {
			t.Fatalf("full-coverage probe chose %d, want 2", got)
		}
	}
}

func TestProbeOneSometimesMissesBest(t *testing.T) {
	// With one probe among three loaded-or-idle remotes, the idle site
	// cannot be found every time — that is the whole point of limited
	// information.
	p, err := NewProbe(bnqCost{}, 1, rng.NewStream(4))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{5, 4, 0, 4}, cpu: []int{0, 0, 0, 0}}, 4)
	hits := 0
	const n = 300
	for i := 0; i < n; i++ {
		if p.Select(ioQuery(), 0, env) == 2 {
			hits++
		}
	}
	if hits == 0 || hits == n {
		t.Errorf("probe-1 found the idle site %d/%d times; want strictly between", hits, n)
	}
}

func TestProbeRespectsCandidates(t *testing.T) {
	p, err := NewProbe(bnqCost{}, 2, rng.NewStream(5))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{9, 0, 0, 0}, cpu: []int{0, 0, 0, 0}}, 4)
	env.Candidates = []int{0, 3}
	for i := 0; i < 50; i++ {
		got := p.Select(ioQuery(), 0, env)
		if got != 0 && got != 3 {
			t.Fatalf("probe chose non-candidate %d", got)
		}
	}
	// Arrival not a candidate: must still return a candidate.
	env.Candidates = []int{1, 3}
	for i := 0; i < 50; i++ {
		got := p.Select(ioQuery(), 0, env)
		if got != 1 && got != 3 {
			t.Fatalf("probe chose non-candidate %d", got)
		}
	}
}

func TestNewProbeKind(t *testing.T) {
	for _, kind := range []Kind{BNQ, BNQRD, LERT} {
		p, err := NewProbeKind(kind, 2, rng.NewStream(6))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(p.Name(), kind.String()) {
			t.Errorf("name %q does not end in %v", p.Name(), kind)
		}
	}
	if _, err := NewProbeKind(Local, 2, rng.NewStream(6)); err == nil {
		t.Error("LOCAL probe accepted")
	}
}

func TestThresholdValidation(t *testing.T) {
	if _, err := NewThreshold(0, 1, rng.NewStream(1)); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := NewThreshold(1, 0, rng.NewStream(1)); err == nil {
		t.Error("zero probes accepted")
	}
	if _, err := NewThreshold(1, 1, nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestThresholdBehavior(t *testing.T) {
	p, err := NewThreshold(3, 2, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "THRESH3x2" {
		t.Errorf("Name = %q", p.Name())
	}
	// Below threshold: stay local regardless of remote state.
	env := testEnv(fixedView{io: []int{2, 0, 0, 0}, cpu: []int{0, 0, 0, 0}}, 4)
	for i := 0; i < 20; i++ {
		if got := p.Select(ioQuery(), 0, env); got != 0 {
			t.Fatalf("below-threshold query transferred to %d", got)
		}
	}
	// At threshold with idle remotes: transfers somewhere below T.
	env = testEnv(fixedView{io: []int{3, 0, 0, 0}, cpu: []int{0, 0, 0, 0}}, 4)
	transferred := 0
	for i := 0; i < 50; i++ {
		if got := p.Select(ioQuery(), 0, env); got != 0 {
			transferred++
			if env.View.NumQueries(got) >= 3 {
				t.Fatalf("transferred to overloaded site %d", got)
			}
		}
	}
	if transferred == 0 {
		t.Error("at-threshold query never transferred")
	}
	// Everything saturated: stays local.
	env = testEnv(fixedView{io: []int{5, 5, 5, 5}, cpu: []int{0, 0, 0, 0}}, 4)
	for i := 0; i < 20; i++ {
		if got := p.Select(ioQuery(), 0, env); got != 0 {
			t.Fatalf("saturated system still transferred to %d", got)
		}
	}
}

func TestThresholdWithCandidates(t *testing.T) {
	p, err := NewThreshold(1, 2, rng.NewStream(8))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{0, 0, 0, 0}, cpu: []int{0, 0, 0, 0}}, 4)
	env.Candidates = []int{2, 3}
	// Arrival holds no copy: must pick a candidate even though its own
	// count is below threshold.
	for i := 0; i < 20; i++ {
		got := p.Select(ioQuery(), 0, env)
		if got != 2 && got != 3 {
			t.Fatalf("threshold policy chose non-candidate %d", got)
		}
	}
}

func TestProbePolicyInSimulator(t *testing.T) {
	// Smoke-check that a probing policy plugs into the full system via
	// CustomPolicy (exercised further in internal/exper).
	q := &workload.Query{EstReads: 20, EstPageCPU: 1.0}
	p, err := NewProbeKind(LERT, 2, rng.NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{0, 0, 0, 0}, cpu: []int{4, 0, 0, 0}}, 4)
	moved := 0
	for i := 0; i < 50; i++ {
		if p.Select(q, 0, env) != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("probing LERT never escaped a loaded arrival site")
	}
}

// referenceProbe is the per-site probing loop as it was written before
// probes were costed in one batch: the arrival site seeds the minimum,
// then each drawn probe is costed and kept on a strict improvement.
func referenceProbe(name string, k int, stream *rng.Stream, q *workload.Query, arrival int, env *Env) int {
	best := NoSite
	minCost := math.Inf(1)
	if env.allowed(arrival) {
		best, minCost = arrival, refCost(name, q, arrival, arrival, env)
	}
	pool := remotePool(arrival, env)
	k = min(k, len(pool))
	for i := 0; i < k; i++ {
		j := i + stream.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		if c := refCost(name, q, pool[i], arrival, env); c < minCost {
			best, minCost = pool[i], c
		}
	}
	if best < 0 && len(pool) > 0 {
		best = pool[0]
	}
	return best
}

// TestProbeMatchesReference: batch-costed probing decides exactly like
// the per-site reference and draws the same probes, across random views,
// candidate sets, liveness masks and CPU speeds. Probing never prices
// the Penalty hook, so the drawn environments go without one.
func TestProbeMatchesReference(t *testing.T) {
	const n = 7
	for _, cost := range []CostFunc{bnqCost{}, bnqrdCost{}, lertCost{}} {
		for _, k := range []int{1, 2, 6} {
			p, err := NewProbe(cost, k, rng.NewStream(8))
			if err != nil {
				t.Fatal(err)
			}
			ref := rng.NewStream(8)
			st := rng.NewStream(12)
			for trial := 0; trial < 400; trial++ {
				env := randomEnv(st, n)
				env.Penalty = nil
				q := ioQuery()
				if st.Bernoulli(0.5) {
					q = cpuQuery()
				}
				arrival := st.Intn(n)
				want := referenceProbe(cost.Name(), k, ref, q, arrival, env)
				if got := p.Select(q, arrival, env); got != want {
					t.Fatalf("%s k=%d trial %d: probe chose %d, reference chose %d", p.Name(), k, trial, got, want)
				}
			}
		}
	}
}
