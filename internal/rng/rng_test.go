package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestChildIndependence(t *testing.T) {
	root := NewStream(7)
	c0 := root.Child(0)
	c1 := root.Child(1)
	// Children must differ from each other and from the parent.
	if c0.Uint64() == c1.Uint64() {
		t.Error("sibling child streams produced identical first draw")
	}
	// Deriving children must not consume from the parent.
	p1 := NewStream(7)
	if root.Uint64() != p1.Uint64() {
		t.Error("Child() consumed numbers from the parent stream")
	}
}

func TestChildDeterminism(t *testing.T) {
	a := NewStream(9).Child(5)
	b := NewStream(9).Child(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal child derivations diverged")
		}
	}
}

// TestDeriveMatchesChild checks that the by-value derivation yields the
// streams Child points to, grandchildren included, for the root ids the
// system uses (generator, policy, sites 100+i, think 1000+i) and the
// site's own children 1–3. The checksum over every stream's first draws
// was taken from the pointer-only implementation, so a slip in the
// shared arithmetic fails here before any digest test sees it.
func TestDeriveMatchesChild(t *testing.T) {
	const want = 0x1b167fde03416c50
	draws := func(a, b *Stream, sum *uint64) {
		for i := 0; i < 4; i++ {
			x, y := a.Uint64(), b.Uint64()
			if x != y {
				t.Fatalf("draw %d: Derive gives %#x, Child %#x", i, x, y)
			}
			*sum = *sum*0x100000001b3 ^ x
		}
	}
	var sum uint64
	for _, seed := range []uint64{0, 1, 2, 42, 1 << 63} {
		root := NewStream(seed)
		for _, id := range []uint64{0, 1, 2, 13, 100, 163, 1000, 1063} {
			c, cp := root.Derive(id), root.Child(id)
			for _, k := range []uint64{1, 2, 3} {
				g := c.Derive(k)
				draws(&g, cp.Child(k), &sum)
			}
			draws(&c, cp, &sum)
		}
	}
	if sum != want {
		t.Errorf("first-draw checksum %#x, want %#x", sum, want)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewStream(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMoments(t *testing.T) {
	r := NewStream(13)
	const (
		n    = 200000
		mean = 3.5
	)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Errorf("exp mean = %v, want ~%v", m, mean)
	}
	if math.Abs(variance-mean*mean) > 0.5 {
		t.Errorf("exp variance = %v, want ~%v", variance, mean*mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	r := NewStream(1)
	if v := r.Exp(0); v != 0 {
		t.Errorf("Exp(0) = %v, want 0", v)
	}
}

// TestExpInfiniteMean: an infinite mean models an event that never
// happens (e.g. MTTF = +Inf) and must not consume a draw, so fault-free
// streams stay aligned.
func TestExpInfiniteMean(t *testing.T) {
	a, b := NewStream(5), NewStream(5)
	if v := a.Exp(math.Inf(1)); !math.IsInf(v, 1) {
		t.Errorf("Exp(+Inf) = %v, want +Inf", v)
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Errorf("Exp(+Inf) consumed a draw: next %d vs %d", x, y)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewStream(17)
	const lo, hi = 0.8, 1.2
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Uniform(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("Uniform out of [%v,%v): %v", lo, hi, v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1.0) > 0.005 {
		t.Errorf("uniform mean = %v, want ~1.0", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewStream(19)
	const buckets = 7
	counts := make([]int, buckets)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 500 {
			t.Errorf("bucket %d count %d deviates from %d", b, c, n/buckets)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewStream(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewStream(29)
	const p = 0.3
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli rate = %v, want ~%v", rate, p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewStream(31)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewStream(1).Intn(0)
}

func BenchmarkUint64(b *testing.B) {
	r := NewStream(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := NewStream(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Exp(1.0)
	}
	_ = sink
}

// TestNormalMoments: the Box–Muller transform must deliver mean 0,
// variance 1 to within sampling tolerance.
func TestNormalMoments(t *testing.T) {
	r := NewStream(23)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite normal variate %v", v)
		}
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestNormalFixedConsumption: every Normal call must consume exactly two
// uniforms, so interleaving Normal draws never shifts a stream relative
// to a plan that budgeted two draws per call.
func TestNormalFixedConsumption(t *testing.T) {
	a, b := NewStream(29), NewStream(29)
	for i := 0; i < 100; i++ {
		a.Normal()
		b.Float64()
		b.Float64()
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Errorf("Normal consumption drifted: next %d vs %d", x, y)
	}
}
