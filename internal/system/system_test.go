package system

import (
	"math"
	"testing"

	"dqalloc/internal/policy"
	"dqalloc/internal/workload"
)

// quickConfig returns a down-scaled configuration for fast tests.
func quickConfig(kind policy.Kind) Config {
	cfg := Default()
	cfg.PolicyKind = kind
	cfg.Warmup = 2000
	cfg.Measure = 20000
	return cfg
}

func TestConfigValidateTable(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "no sites", mutate: func(c *Config) { c.NumSites = 0 }},
		{name: "no disks", mutate: func(c *Config) { c.NumDisks = 0 }},
		{name: "no terminals", mutate: func(c *Config) { c.MPL = 0 }},
		{name: "zero disk time", mutate: func(c *Config) { c.DiskTime = 0 }},
		{name: "disk dev", mutate: func(c *Config) { c.DiskTimeDev = 1.5 }},
		{name: "negative think", mutate: func(c *Config) { c.ThinkTime = -1 }},
		{name: "NaN think", mutate: func(c *Config) { c.ThinkTime = math.NaN() }},
		{name: "infinite think", mutate: func(c *Config) { c.ThinkTime = math.Inf(1) }},
		{name: "no classes", mutate: func(c *Config) { c.Classes = nil }},
		{name: "probs mismatch", mutate: func(c *Config) { c.ClassProbs = []float64{1} }},
		{name: "NaN probs", mutate: func(c *Config) { c.ClassProbs = []float64{math.NaN(), math.NaN()} }},
		{name: "probs not normalized", mutate: func(c *Config) { c.ClassProbs = []float64{0.5, 0.6} }},
		{name: "NaN msg length", mutate: func(c *Config) { c.Classes[1].MsgLength = math.NaN() }},
		{name: "negative msg time", mutate: func(c *Config) { c.MsgTime = -1 }},
		{name: "negative warmup", mutate: func(c *Config) { c.Warmup = -1 }},
		{name: "zero measure", mutate: func(c *Config) { c.Measure = 0 }},
		{name: "periodic without period", mutate: func(c *Config) { c.InfoMode = InfoPeriodic; c.InfoPeriod = 0 }},
		{name: "bad info mode", mutate: func(c *Config) { c.InfoMode = 0 }},
		{name: "bad class", mutate: func(c *Config) { c.Classes[0].PageCPUTime = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Error("invalid config accepted")
			}
			if _, err := New(cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestConfigValidateNonFiniteHorizon pins that a NaN or infinite
// horizon is a config error: the negativity checks alone let NaN
// through, and Run would then fire events without end.
func TestConfigValidateNonFiniteHorizon(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, h := range []struct{ warmup, measure float64 }{
		{nan, 1000},
		{0, nan},
		{0, inf},
		{inf, 1000},
		{math.MaxFloat64, math.MaxFloat64}, // each finite, the sum is not
	} {
		cfg := Default()
		cfg.Warmup, cfg.Measure = h.warmup, h.measure
		if cfg.Validate() == nil {
			t.Errorf("Warmup %v, Measure %v accepted", h.warmup, h.measure)
		}
	}
}

func TestInfoModeString(t *testing.T) {
	if InfoPerfect.String() != "perfect" || InfoPeriodic.String() != "periodic" ||
		InfoMode(0).String() != "unknown" {
		t.Error("InfoMode.String mismatch")
	}
}

func TestLocalRunMatchesPaperBaseline(t *testing.T) {
	// Paper Table 8 at think_time = 350 reports W̄_LOCAL = 22.71 and
	// ρ_c = 0.53; Section 5.2 quotes a mean execution time of 30.5. Our
	// model should land near those values (independent implementation and
	// seeds: allow ~15% on W̄, a few points on utilization).
	cfg := quickConfig(policy.Local)
	cfg.Measure = 60000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.MeanWait < 17 || r.MeanWait > 28 {
		t.Errorf("W̄_LOCAL = %v, paper reports 22.71", r.MeanWait)
	}
	if math.Abs(r.CPUUtil-0.53) > 0.05 {
		t.Errorf("ρ_c = %v, paper reports 0.53", r.CPUUtil)
	}
	meanService := 0.5*r.ByClass[0].MeanService + 0.5*r.ByClass[1].MeanService
	if math.Abs(meanService-30.5) > 1.5 {
		t.Errorf("mean execution time = %v, paper quotes 30.5", meanService)
	}
	if r.RemoteFrac != 0 || r.SubnetUtil != 0 {
		t.Errorf("LOCAL run used the network: remote %v subnet %v", r.RemoteFrac, r.SubnetUtil)
	}
	if r.Policy != "LOCAL" {
		t.Errorf("Policy = %q", r.Policy)
	}
}

func TestDynamicPoliciesBeatLocal(t *testing.T) {
	waits := make(map[policy.Kind]float64)
	for _, kind := range []policy.Kind{policy.Local, policy.BNQ, policy.BNQRD, policy.LERT} {
		sys, err := New(quickConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		waits[kind] = sys.Run().MeanWait
	}
	for _, kind := range []policy.Kind{policy.BNQ, policy.BNQRD, policy.LERT} {
		if waits[kind] >= waits[policy.Local] {
			t.Errorf("%v W̄ = %v not better than LOCAL %v", kind, waits[kind], waits[policy.Local])
		}
	}
	// The paper's central result: demand-aware policies beat BNQ.
	if waits[policy.BNQRD] >= waits[policy.BNQ] {
		t.Errorf("BNQRD (%v) not better than BNQ (%v)", waits[policy.BNQRD], waits[policy.BNQ])
	}
	if waits[policy.LERT] >= waits[policy.BNQ] {
		t.Errorf("LERT (%v) not better than BNQ (%v)", waits[policy.LERT], waits[policy.BNQ])
	}
}

func TestWorkPolicyCompetitive(t *testing.T) {
	// The two-dimensional WORK policy uses strictly more information
	// than BNQ (demand estimates per resource) and should beat it.
	waits := map[policy.Kind]float64{}
	for _, kind := range []policy.Kind{policy.BNQ, policy.Work, policy.LERT} {
		sys, err := New(quickConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		waits[kind] = sys.Run().MeanWait
	}
	if waits[policy.Work] >= waits[policy.BNQ] {
		t.Errorf("WORK (W̄=%v) not better than BNQ (W̄=%v)", waits[policy.Work], waits[policy.BNQ])
	}
	// It should be in LERT's league (within 25%).
	if waits[policy.Work] > waits[policy.LERT]*1.25 {
		t.Errorf("WORK (W̄=%v) far behind LERT (W̄=%v)", waits[policy.Work], waits[policy.LERT])
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := quickConfig(policy.LERT)
	cfg.Warmup = 500
	cfg.Measure = 5000
	run := func() Results {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	a, b := run(), run()
	if a.MeanWait != b.MeanWait || a.Completed != b.Completed || a.CPUUtil != b.CPUUtil {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
	cfg.Seed = 99
	c := run()
	if c.MeanWait == a.MeanWait && c.Completed == a.Completed {
		t.Error("different seed produced identical results")
	}
}

func TestClosedPopulationInvariant(t *testing.T) {
	// In a closed model the number of measured completions per terminal
	// cannot exceed horizon / min cycle time, and every query completes
	// with reads done == reads total.
	cfg := quickConfig(policy.BNQ)
	cfg.Warmup = 500
	cfg.Measure = 5000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
	// Load table must return to the live population (queries still in
	// flight are counted; completed ones are not).
	total := sys.table.Total()
	if total < 0 || total > cfg.NumSites*cfg.MPL {
		t.Errorf("load table total %d outside [0, %d]", total, cfg.NumSites*cfg.MPL)
	}
}

func TestRemoteQueriesPayMessageCosts(t *testing.T) {
	// With RANDOM allocation most queries go remote; their measured mean
	// service must exceed the LOCAL mean by about the two message times.
	local, err := New(quickConfig(policy.Local))
	if err != nil {
		t.Fatal(err)
	}
	random, err := New(quickConfig(policy.Random))
	if err != nil {
		t.Fatal(err)
	}
	rl, rr := local.Run(), random.Run()
	if rr.RemoteFrac < 0.7 {
		t.Errorf("RANDOM remote fraction = %v, want > 0.7 for 6 sites", rr.RemoteFrac)
	}
	dl := rr.ByClass[0].MeanService - rl.ByClass[0].MeanService
	want := 2 * rr.RemoteFrac // msg_length 1 each way, only for remotes
	if math.Abs(dl-want) > 0.4 {
		t.Errorf("remote service premium = %v, want ~%v", dl, want)
	}
	if rr.SubnetUtil <= 0 {
		t.Error("RANDOM run reports zero subnet utilization")
	}
}

func TestPeriodicInfoRuns(t *testing.T) {
	cfg := quickConfig(policy.LERT)
	cfg.InfoMode = InfoPeriodic
	cfg.InfoPeriod = 50
	cfg.Warmup = 500
	cfg.Measure = 10000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Completed == 0 {
		t.Error("periodic-info run completed nothing")
	}
}

func TestStaleInfoDegradesLERT(t *testing.T) {
	fresh := quickConfig(policy.LERT)
	stale := quickConfig(policy.LERT)
	stale.InfoMode = InfoPeriodic
	stale.InfoPeriod = 400 // older than a typical response time
	sysF, err := New(fresh)
	if err != nil {
		t.Fatal(err)
	}
	sysS, err := New(stale)
	if err != nil {
		t.Fatal(err)
	}
	wF, wS := sysF.Run().MeanWait, sysS.Run().MeanWait
	if wS <= wF {
		t.Errorf("very stale info (W̄=%v) not worse than perfect info (W̄=%v)", wS, wF)
	}
}

func TestFairnessSignTracksClassMix(t *testing.T) {
	// Table 12: with mostly CPU-bound work (p_io = 0.3) the CPU is the
	// bottleneck and F = Ŵ_io − Ŵ_cpu is negative; with mostly I/O-bound
	// work (p_io = 0.8) the disks are the bottleneck and F is positive.
	run := func(pio float64) Results {
		cfg := quickConfig(policy.Local)
		cfg.ClassProbs = []float64{pio, 1 - pio}
		cfg.Measure = 40000
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run()
	}
	low, high := run(0.3), run(0.8)
	if low.Fairness >= 0 {
		t.Errorf("F(p_io=0.3) = %v, want negative (paper: −0.377)", low.Fairness)
	}
	if high.Fairness <= 0 {
		t.Errorf("F(p_io=0.8) = %v, want positive (paper: +0.224)", high.Fairness)
	}
	// ρ_d/ρ_c ratios from Table 12: 0.70 at 0.3 and 2.08 at 0.8.
	if math.Abs(low.UtilizationRatio()-0.70) > 0.08 {
		t.Errorf("ρ_d/ρ_c at p_io=0.3 = %v, paper reports 0.70", low.UtilizationRatio())
	}
	if math.Abs(high.UtilizationRatio()-2.08) > 0.2 {
		t.Errorf("ρ_d/ρ_c at p_io=0.8 = %v, paper reports 2.08", high.UtilizationRatio())
	}
}

func TestCustomPolicyIsUsed(t *testing.T) {
	cfg := quickConfig(policy.BNQ)
	cfg.CustomPolicy = fixedSitePolicy{site: 0}
	cfg.Warmup = 100
	cfg.Measure = 2000
	if cfg.PolicyName() != "fixed" {
		t.Errorf("PolicyName = %q, want fixed", cfg.PolicyName())
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if r.Policy != "fixed" {
		t.Errorf("Policy = %q, want fixed", r.Policy)
	}
	// Everything funnels to site 0: 5/6 of completions are remote.
	if r.RemoteFrac < 0.7 {
		t.Errorf("remote fraction = %v, want ~0.83", r.RemoteFrac)
	}
}

// fixedSitePolicy always allocates to one site (pathological, for tests).
type fixedSitePolicy struct{ site int }

func (p fixedSitePolicy) Name() string { return "fixed" }

func (p fixedSitePolicy) Select(*workload.Query, int, *policy.Env) int { return p.site }

func TestUtilizationRatioZeroCPU(t *testing.T) {
	var r Results
	if r.UtilizationRatio() != 0 {
		t.Error("UtilizationRatio with zero CPU should be 0")
	}
}

func TestEstimateOracleRuns(t *testing.T) {
	cfg := quickConfig(policy.LERT)
	cfg.EstimateMode = workload.EstimateActual
	cfg.Warmup = 500
	cfg.Measure = 10000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.Run(); r.Completed == 0 {
		t.Error("oracle-estimate run completed nothing")
	}
}
