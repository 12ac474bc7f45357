package policy

import (
	"math"
	"testing"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// refCost is an independent per-site transcription of the cost
// functions — Figures 4–6 and WORK's bottleneck backlog — plus the
// Penalty surcharge, reading the view with one call per site and count.
func refCost(name string, q *workload.Query, s, arrival int, env *Env) float64 {
	v := env.View
	speed := 1.0
	if env.CPUSpeeds != nil {
		speed = env.CPUSpeeds[s]
	}
	var c float64
	switch name {
	case "BNQ":
		c = float64(v.NumQueries(s))
	case "BNQRD":
		if env.DiskTime/float64(env.NumDisks) > q.EstPageCPU {
			c = float64(v.NumIOQueries(s))
		} else {
			c = float64(v.NumCPUQueries(s))
		}
	case "WORK":
		wv, ok := v.(loadinfo.WorkView)
		if !ok {
			c = float64(v.NumQueries(s))
			break
		}
		c = math.Max((wv.CPUWork(s)+q.EstCPUDemand())/speed,
			(wv.IOWork(s)+q.EstDiskDemand(env.DiskTime))/float64(env.NumDisks))
	case "LERT":
		cpuTime := q.EstCPUDemand() / speed
		ioTime := q.EstDiskDemand(env.DiskTime)
		netTime := 0.0
		if s != arrival {
			netTime = env.NetTime(q)
		}
		cpuWait := cpuTime * float64(v.NumCPUQueries(s))
		ioWait := ioTime * float64(v.NumIOQueries(s)) / float64(env.NumDisks)
		c = cpuTime + cpuWait + ioTime + ioWait + netTime
	default:
		panic("refCost: unknown cost " + name)
	}
	if env.Penalty != nil {
		c += env.Penalty(s)
	}
	return c
}

// referenceSelect is an independent per-site transcription of the
// Figure-3 loop with the anti-herd knobs: seed the minimum with the
// local cost, consider remotes one at a time in round-robin order (or a
// PowerK sample drawn from stream), keep the first strict improvement
// (or a reservoir draw among ties), and apply the hysteresis margin
// last. It shares no code with Selector.
func referenceSelect(name string, tune Tuning, stream *rng.Stream, cursor []int, q *workload.Query, arrival int, env *Env) int {
	up := func(s int) bool { return env.Up == nil || env.Up[s] }
	holds := func(s int) bool {
		if env.Candidates == nil {
			return true
		}
		for _, c := range env.Candidates {
			if c == s {
				return true
			}
		}
		return false
	}
	localOK := up(arrival) && holds(arrival)
	localCost := math.Inf(1)
	if localOK {
		localCost = refCost(name, q, arrival, arrival, env)
	}
	order := make([]int, 0, env.NumSites)
	if env.Candidates == nil {
		for s := 0; s < env.NumSites; s++ {
			order = append(order, s)
		}
	} else {
		order = append(order, env.Candidates...)
	}
	var remotes []int
	if tune.PowerK > 0 {
		for _, s := range order {
			if s != arrival && up(s) {
				remotes = append(remotes, s)
			}
		}
		if tune.PowerK < len(remotes) {
			for i := 0; i < tune.PowerK; i++ {
				j := i + stream.Intn(len(remotes)-i)
				remotes[i], remotes[j] = remotes[j], remotes[i]
			}
			remotes = remotes[:tune.PowerK]
		}
	} else {
		start := cursor[arrival]
		cursor[arrival]++
		for i := 0; i < len(order); i++ {
			if s := order[(start+i)%len(order)]; s != arrival && up(s) {
				remotes = append(remotes, s)
			}
		}
	}
	best, minCost, ties := NoSite, math.Inf(1), 0
	for _, s := range remotes {
		c := refCost(name, q, s, arrival, env)
		if c < minCost {
			best, minCost, ties = s, c, 1
		} else if tune.RandomTies && best != NoSite && c == minCost {
			ties++
			if stream.Intn(ties) == 0 {
				best = s
			}
		}
	}
	if !localOK {
		return best
	}
	if best != NoSite && minCost < localCost*(1-tune.Hysteresis) {
		return best
	}
	return arrival
}

// randomEnv draws a random load view — a count view with a bulk read,
// one without (read per site), or one that also carries work — and, independently, an optional candidate
// restriction, liveness mask, cost penalty, CPU speed vector and
// suspicion mask for property tests. Counts, work, penalties and speeds
// come from small sets so that equal costs, and with them tie-breaks,
// are common.
func randomEnv(st *rng.Stream, n int) *Env {
	v := fixedView{io: make([]int, n), cpu: make([]int, n)}
	for i := 0; i < n; i++ {
		v.io[i] = st.Intn(6)
		v.cpu[i] = st.Intn(6)
	}
	env := testEnv(v, n)
	switch st.Intn(3) {
	case 1:
		env.View = perSiteView{v}
	case 2:
		wv := workView{fixedView: v, cpuW: make([]float64, n), ioW: make([]float64, n)}
		for i := 0; i < n; i++ {
			wv.cpuW[i] = float64(st.Intn(5)) * 2.5
			wv.ioW[i] = float64(st.Intn(5)) * 10
		}
		env.View = wv
	}
	if st.Bernoulli(0.4) {
		cands := []int{}
		for s := 0; s < n; s++ {
			if st.Bernoulli(0.6) {
				cands = append(cands, s)
			}
		}
		env.Candidates = cands
	}
	if st.Bernoulli(0.5) {
		up := make([]bool, n)
		for s := range up {
			up[s] = st.Bernoulli(0.8)
		}
		env.Up = up
	}
	if st.Bernoulli(0.4) {
		pen := make([]float64, n)
		for s := range pen {
			pen[s] = []float64{0, 0, 1, 2.5, 1000}[st.Intn(5)]
		}
		env.Penalty = func(s int) float64 { return pen[s] }
	}
	if st.Bernoulli(0.4) {
		speeds := make([]float64, n)
		for s := range speeds {
			speeds[s] = []float64{0.5, 1, 2}[st.Intn(3)]
		}
		env.CPUSpeeds = speeds
	}
	if st.Bernoulli(0.3) {
		sus := make([]bool, n)
		for s := range sus {
			sus[s] = st.Bernoulli(0.3)
		}
		env.Suspect = sus
	}
	return env
}

// TestZeroTuningMatchesReference: with every knob off, the batch
// selector must decide exactly like the paper's per-site Figure-3 loop
// across random views, candidate sets, liveness masks, penalties, CPU
// speeds, suspicion masks and arrival sites — the digest-identity
// contract at the policy layer.
func TestZeroTuningMatchesReference(t *testing.T) {
	checkAgainstReference(t, Tuning{})
}

// TestTunedMatchesReference: with each anti-herd knob on, the batch
// selector must still decide exactly like the per-site reference and
// consume the same random draws.
func TestTunedMatchesReference(t *testing.T) {
	checkAgainstReference(t,
		Tuning{Hysteresis: 0.2},
		Tuning{PowerK: 2},
		Tuning{RandomTies: true},
		Tuning{Hysteresis: 0.1, PowerK: 3, RandomTies: true},
	)
}

// checkAgainstReference drives a tuned selector and referenceSelect,
// seeded alike, through the same random decisions for every cost
// function and tuning, failing on the first differing choice or on
// differing random-stream use.
func checkAgainstReference(t *testing.T, tunings ...Tuning) {
	t.Helper()
	for _, cost := range []CostFunc{bnqCost{}, bnqrdCost{}, lertCost{}, workCost{}} {
		for _, n := range []int{5, 8} {
			for ti, tune := range tunings {
				sel, err := NewTunedSelector(cost, n, tune, rng.NewStream(uint64(40+ti)))
				if err != nil {
					t.Fatal(err)
				}
				refStream := rng.NewStream(uint64(40 + ti))
				refCursor := make([]int, n)
				st := rng.NewStream(99)
				for trial := 0; trial < 500; trial++ {
					env := randomEnv(st, n)
					q := ioQuery()
					if st.Bernoulli(0.5) {
						q = cpuQuery()
					}
					arrival := st.Intn(n)
					want := referenceSelect(cost.Name(), tune, refStream, refCursor, q, arrival, env)
					if got := sel.Select(q, arrival, env); got != want {
						t.Fatalf("%s n=%d %+v trial %d: selector chose %d, reference chose %d (arrival %d, cands %v, up %v)",
							cost.Name(), n, tune, trial, got, want, arrival, env.Candidates, env.Up)
					}
				}
				if refStream.Uint64() != sel.stream.Uint64() {
					t.Errorf("%s n=%d %+v: selector and reference consumed different draws", cost.Name(), n, tune)
				}
			}
		}
	}
}

// TestHysteresisMargin: a remote must undercut local·(1 − h) to win the
// query; marginally better remotes no longer trigger a transfer.
func TestHysteresisMargin(t *testing.T) {
	view := fixedView{io: []int{10, 9, 7}, cpu: make([]int, 3)}
	cases := []struct {
		h    float64
		want int
	}{
		{0, 2},    // best remote 7 < 10: transfer
		{0.2, 2},  // threshold 8: remote 7 still qualifies
		{0.35, 0}, // threshold 6.5: nothing qualifies, stay local
	}
	for _, tc := range cases {
		sel, err := NewTunedSelector(bnqCost{}, 3, Tuning{Hysteresis: tc.h}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := sel.Select(ioQuery(), 0, testEnv(view, 3)); got != tc.want {
			t.Errorf("h=%v: chose %d, want %d", tc.h, got, tc.want)
		}
	}
}

// TestHysteresisSkipsWhenLocalDown: the margin only guards transfers
// away from a usable local site; with the arrival site down the best
// remote wins regardless of margin.
func TestHysteresisSkipsWhenLocalDown(t *testing.T) {
	view := fixedView{io: []int{0, 9, 7}, cpu: make([]int, 3)}
	env := testEnv(view, 3)
	env.Up = []bool{false, true, true}
	sel, err := NewTunedSelector(bnqCost{}, 3, Tuning{Hysteresis: 0.9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Select(ioQuery(), 0, env); got != 2 {
		t.Errorf("local down: chose %d, want best remote 2", got)
	}
}

// TestPowerKSampleSubset: appendSample must return exactly K distinct
// eligible remotes — never the arrival site, never a down site, never a
// non-candidate — and be deterministic per seed.
func TestPowerKSampleSubset(t *testing.T) {
	const n = 8
	mkEnv := func() *Env {
		env := testEnv(fixedView{io: make([]int, n), cpu: make([]int, n)}, n)
		env.Up = []bool{true, true, false, true, true, true, false, true}
		env.Candidates = []int{0, 1, 2, 3, 4, 5, 7}
		return env
	}
	build := func(seed uint64) *Selector {
		sel, err := NewTunedSelector(bnqCost{}, n, Tuning{PowerK: 3}, rng.NewStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	a, b := build(5), build(5)
	for trial := 0; trial < 200; trial++ {
		got := a.appendSample(nil, 1, mkEnv())
		if len(got) != 3 {
			t.Fatalf("sampled %d sites, want 3", len(got))
		}
		seen := map[int]bool{}
		for _, s := range got {
			// Eligible: candidate, up, not the arrival site 1.
			if s == 1 || s == 2 || s == 6 || s < 0 || s >= n || seen[s] {
				t.Fatalf("bad sample %v", got)
			}
			seen[s] = true
		}
		same := b.appendSample(nil, 1, mkEnv())
		for i := range got {
			if got[i] != same[i] {
				t.Fatalf("trial %d: same seed sampled %v vs %v", trial, got, same)
			}
		}
	}
}

// TestPowerKNoDrawsWhenAllEligible: when K covers every eligible
// remote, no random draws may be consumed — stream usage must not
// depend on how many sites happen to be down.
func TestPowerKNoDrawsWhenAllEligible(t *testing.T) {
	st, twin := rng.NewStream(5), rng.NewStream(5)
	sel, err := NewTunedSelector(bnqCost{}, 4, Tuning{PowerK: 3}, st)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(fixedView{io: []int{1, 2, 3, 4}, cpu: make([]int, 4)}, 4)
	sel.Select(ioQuery(), 0, env) // 3 eligible remotes == K
	env.Up = []bool{true, false, true, true}
	sel.Select(ioQuery(), 0, env) // 2 eligible remotes < K
	if st.Uint64() != twin.Uint64() {
		t.Error("PowerK consumed draws although every eligible remote was sampled")
	}
}

// TestPowerKFullSampleMatchesUntuned: with K = numSites and distinct
// costs, sampling covers all remotes and the decision must match the
// untuned selector.
func TestPowerKFullSampleMatchesUntuned(t *testing.T) {
	const n = 4
	view := fixedView{io: []int{5, 3, 9, 1}, cpu: make([]int, n)}
	untuned := NewSelector(bnqCost{}, n)
	tuned, err := NewTunedSelector(bnqCost{}, n, Tuning{PowerK: n}, rng.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		for arrival := 0; arrival < n; arrival++ {
			want := untuned.Select(ioQuery(), arrival, testEnv(view, n))
			if got := tuned.Select(ioQuery(), arrival, testEnv(view, n)); got != want {
				t.Errorf("arrival %d: tuned chose %d, untuned chose %d", arrival, got, want)
			}
		}
	}
}

// TestRandomTiesUniform: equal-cost remotes must each win roughly 1/k
// of the decisions instead of the first-in-scan-order site taking all.
func TestRandomTiesUniform(t *testing.T) {
	const n = 4
	view := fixedView{io: []int{5, 1, 1, 1}, cpu: make([]int, n)}
	sel, err := NewTunedSelector(bnqCost{}, n, Tuning{RandomTies: true}, rng.NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		got := sel.Select(ioQuery(), 0, testEnv(view, n))
		if got == 0 || got == NoSite {
			t.Fatalf("tie among cheaper remotes chose %d", got)
		}
		counts[got]++
	}
	for s := 1; s < n; s++ {
		frac := float64(counts[s]) / trials
		if frac < 0.28 || frac > 0.39 {
			t.Errorf("site %d won %.3f of ties, want ~1/3", s, frac)
		}
	}
}

// TestRandomTiesDeterministicPerSeed: the tie-break sequence must be a
// pure function of the seed.
func TestRandomTiesDeterministicPerSeed(t *testing.T) {
	const n = 4
	view := fixedView{io: []int{5, 1, 1, 1}, cpu: make([]int, n)}
	build := func() *Selector {
		sel, err := NewTunedSelector(bnqCost{}, n, Tuning{RandomTies: true}, rng.NewStream(21))
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		x := a.Select(ioQuery(), 0, testEnv(view, n))
		y := b.Select(ioQuery(), 0, testEnv(view, n))
		if x != y {
			t.Fatalf("decision %d: same seed diverged, %d vs %d", i, x, y)
		}
	}
}

func TestTuningValidate(t *testing.T) {
	cases := []struct {
		name string
		tune Tuning
		ok   bool
	}{
		{"zero", Tuning{}, true},
		{"all knobs", Tuning{Hysteresis: 0.2, PowerK: 2, RandomTies: true}, true},
		{"k equals sites", Tuning{PowerK: 4}, true},
		{"negative hysteresis", Tuning{Hysteresis: -0.1}, false},
		{"hysteresis one", Tuning{Hysteresis: 1}, false},
		{"nan hysteresis", Tuning{Hysteresis: math.NaN()}, false},
		{"negative k", Tuning{PowerK: -1}, false},
		{"k above sites", Tuning{PowerK: 5}, false},
	}
	for _, tc := range cases {
		if err := tc.tune.Validate(4); (err == nil) != tc.ok {
			t.Errorf("%s: Validate(4) = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTuningEnabled(t *testing.T) {
	if (Tuning{}).Enabled() {
		t.Error("zero Tuning reports enabled")
	}
	for _, tune := range []Tuning{{Hysteresis: 0.1}, {PowerK: 2}, {RandomTies: true}} {
		if !tune.Enabled() {
			t.Errorf("%+v reports disabled", tune)
		}
	}
}

func TestNewTunedErrors(t *testing.T) {
	st := rng.NewStream(1)
	if _, err := NewTuned(Local, 4, Tuning{Hysteresis: 0.1}, st); err == nil {
		t.Error("LOCAL accepted anti-herd tuning")
	}
	if _, err := NewTuned(Random, 4, Tuning{Hysteresis: 0.1}, st); err == nil {
		t.Error("RANDOM accepted anti-herd tuning")
	}
	if _, err := NewTunedSelector(bnqCost{}, 4, Tuning{PowerK: 2}, nil); err == nil {
		t.Error("PowerK without a stream accepted")
	}
	if _, err := NewTunedSelector(bnqCost{}, 4, Tuning{RandomTies: true}, nil); err == nil {
		t.Error("RandomTies without a stream accepted")
	}
	if _, err := NewTunedSelector(bnqCost{}, 0, Tuning{}, nil); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := NewTunedSelector(bnqCost{}, 4, Tuning{Hysteresis: -1}, nil); err == nil {
		t.Error("invalid tuning accepted")
	}
	p, err := NewTuned(BNQ, 4, Tuning{Hysteresis: 0.1}, nil)
	if err != nil || p.Name() != "BNQ" {
		t.Errorf("NewTuned(BNQ) = %v, %v", p, err)
	}
	for _, kind := range []Kind{BNQRD, LERT, Work} {
		if _, err := NewTuned(kind, 4, Tuning{PowerK: 2}, st); err != nil {
			t.Errorf("NewTuned(%v) rejected: %v", kind, err)
		}
	}
}

// --- pickUniform property tests (RANDOM's fault-aware tie-breaker) ---

// TestPickUniformDeterministicPerSeed: picks are a pure function of the
// stream seed and the call sequence.
func TestPickUniformDeterministicPerSeed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := rng.NewStream(seed), rng.NewStream(seed)
		gen := rng.NewStream(seed + 100)
		for trial := 0; trial < 300; trial++ {
			n := 2 + gen.Intn(6)
			env := testEnv(fixedView{io: make([]int, n), cpu: make([]int, n)}, n)
			up := make([]bool, n)
			for i := range up {
				up[i] = gen.Bernoulli(0.7)
			}
			env.Up = up
			if x, y := pickUniform(a, env), pickUniform(b, env); x != y {
				t.Fatalf("seed %d trial %d: %d vs %d", seed, trial, x, y)
			}
		}
	}
}

// TestPickUniformUniformAcrossLiveSites: every live site must be drawn
// with equal probability, with and without a candidate set.
func TestPickUniformUniformAcrossLiveSites(t *testing.T) {
	const n = 6
	env := testEnv(fixedView{io: make([]int, n), cpu: make([]int, n)}, n)
	env.Up = []bool{true, false, true, true, false, true}
	st := rng.NewStream(42)
	const trials = 40000

	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		s := pickUniform(st, env)
		if !env.Up[s] {
			t.Fatalf("picked down site %d", s)
		}
		counts[s]++
	}
	for _, s := range []int{0, 2, 3, 5} {
		if frac := float64(counts[s]) / trials; frac < 0.22 || frac > 0.28 {
			t.Errorf("site %d drawn with frequency %.3f, want ~0.25", s, frac)
		}
	}

	// Candidate restriction {1, 3, 4, 5} with site 4 down: live {1?...}.
	env.Up = []bool{true, true, true, true, false, true}
	set := []int{1, 3, 4, 5}
	setCounts := make([]int, n)
	for i := 0; i < trials; i++ {
		s := pickUniform(st, env, set...)
		if s == 4 || s == 0 || s == 2 {
			t.Fatalf("picked ineligible site %d", s)
		}
		setCounts[s]++
	}
	for _, s := range []int{1, 3, 5} {
		if frac := float64(setCounts[s]) / trials; frac < 0.30 || frac > 0.37 {
			t.Errorf("candidate %d drawn with frequency %.3f, want ~1/3", s, frac)
		}
	}
}

// TestPickUniformSkipsDownSites: under random liveness masks the pick
// is always a live in-set site, or NoSite exactly when none is live.
func TestPickUniformSkipsDownSites(t *testing.T) {
	gen, st := rng.NewStream(7), rng.NewStream(8)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + gen.Intn(8)
		env := testEnv(fixedView{io: make([]int, n), cpu: make([]int, n)}, n)
		up := make([]bool, n)
		anyLive := false
		for i := range up {
			up[i] = gen.Bernoulli(0.5)
		}
		env.Up = up
		var set []int
		if gen.Bernoulli(0.5) {
			set = []int{}
			for s := 0; s < n; s++ {
				if gen.Bernoulli(0.6) {
					set = append(set, s)
				}
			}
			for _, s := range set {
				anyLive = anyLive || up[s]
			}
		} else {
			for _, v := range up {
				anyLive = anyLive || v
			}
		}
		got := pickUniform(st, env, set...)
		if !anyLive {
			if got != NoSite {
				t.Fatalf("trial %d: no live site but picked %d", trial, got)
			}
			continue
		}
		if got == NoSite || !up[got] {
			t.Fatalf("trial %d: picked %d (up=%v, set=%v)", trial, got, up, set)
		}
		if set != nil {
			in := false
			for _, s := range set {
				in = in || s == got
			}
			if !in {
				t.Fatalf("trial %d: picked %d outside candidate set %v", trial, got, set)
			}
		}
	}
}

// TestPickUniformNoDrawWhenNoneLive: the NoSite path must not consume
// a random draw, so a dead candidate set never shifts the sequence.
func TestPickUniformNoDrawWhenNoneLive(t *testing.T) {
	a, b := rng.NewStream(3), rng.NewStream(3)
	env := testEnv(fixedView{io: make([]int, 4), cpu: make([]int, 4)}, 4)
	env.Up = make([]bool, 4)
	if got := pickUniform(a, env); got != NoSite {
		t.Fatalf("all-down pick = %d, want NoSite", got)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("pickUniform consumed a draw on the NoSite path")
	}
}
