package exper

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/system"
)

// tiny returns a runner sized for unit tests.
func tiny() Runner {
	return Runner{Reps: 1, BaseSeed: 7, Warmup: 1000, Measure: 8000}
}

func TestRunnerValidate(t *testing.T) {
	if (Runner{Reps: 0}).Validate() == nil {
		t.Error("zero reps accepted")
	}
	if (Runner{Reps: 1, Warmup: -1}).Validate() == nil {
		t.Error("negative warmup accepted")
	}
	for _, r := range []Runner{
		{Reps: 1, Warmup: math.NaN(), Measure: 1000},
		{Reps: 1, Measure: math.NaN()},
		{Reps: 1, Measure: math.Inf(1)},
	} {
		if r.Validate() == nil {
			t.Errorf("non-finite horizon Warmup %v, Measure %v accepted", r.Warmup, r.Measure)
		}
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick() invalid: %v", err)
	}
	if err := Full().Validate(); err != nil {
		t.Errorf("Full() invalid: %v", err)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 60); got != 40 {
		t.Errorf("Improvement(100,60) = %v, want 40", got)
	}
	if got := Improvement(0, 60); got != 0 {
		t.Errorf("Improvement with zero ref = %v, want 0", got)
	}
	if got := Improvement(50, 60); got != -20 {
		t.Errorf("degradation = %v, want -20", got)
	}
}

// TestImprovementAntisymmetric is a property test: waits displaced
// symmetrically around the reference yield equal and opposite
// improvements, and the reference itself yields zero.
func TestImprovementAntisymmetric(t *testing.T) {
	f := func(refRaw, deltaRaw uint16) bool {
		ref := 1 + float64(refRaw)/100     // 1 .. ~656
		delta := float64(deltaRaw) / 65536 // [0, 1): keeps ref±Δ positive
		d := ref * delta
		up, down := Improvement(ref, ref+d), Improvement(ref, ref-d)
		if math.Abs(up+down) > 1e-9 {
			t.Logf("Improvement(%v, %v) = %v vs Improvement(%v, %v) = %v",
				ref, ref+d, up, ref, ref-d, down)
			return false
		}
		return Improvement(ref, ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunAggregates(t *testing.T) {
	r := Runner{Reps: 3, BaseSeed: 1, Warmup: 500, Measure: 5000}
	agg, err := r.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Policy != "LERT" {
		t.Errorf("Policy = %q, want LERT", agg.Policy)
	}
	if agg.MeanWait.N != 3 {
		t.Errorf("CI over %d reps, want 3", agg.MeanWait.N)
	}
	if agg.MeanWait.Mean <= 0 || agg.Completed == 0 {
		t.Errorf("degenerate aggregate: %+v", agg)
	}
	if agg.CPUUtil <= 0 || agg.CPUUtil >= 1 {
		t.Errorf("CPU utilization %v out of range", agg.CPUUtil)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := Runner{Reps: 4, BaseSeed: 11, Warmup: 500, Measure: 5000}
	parallel := serial
	parallel.Parallel = true
	a, err := serial.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanWait != b.MeanWait || a.Completed != b.Completed || a.Fairness != b.Fairness {
		t.Errorf("parallel aggregate differs from serial:\n%+v\n%+v", a, b)
	}
}

func TestParallelRejectsCustomPolicy(t *testing.T) {
	r := Runner{Reps: 2, BaseSeed: 1, Warmup: 200, Measure: 2000, Parallel: true}
	cfg := system.Default()
	pol, err := policy.NewThreshold(3, 2, rng.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.CustomPolicy = pol // stateful: a shared value cannot run concurrently
	if _, err := r.Run(cfg); !errors.Is(err, ErrParallelCustomPolicy) {
		t.Fatalf("Run with Parallel+CustomPolicy: err = %v, want ErrParallelCustomPolicy", err)
	}

	// Clearing Parallel — what the error tells the caller to do — works.
	r.Parallel = false
	agg, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed == 0 {
		t.Error("serial custom-policy run completed nothing")
	}
}

func TestParallelWorkerPool(t *testing.T) {
	// A worker pool smaller than Reps must still fill every replication
	// slot and produce the exact serial aggregate.
	serial := Runner{Reps: 5, BaseSeed: 7, Warmup: 300, Measure: 3000}
	pooled := serial
	pooled.Parallel = true
	pooled.Workers = 2
	a, err := serial.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pooled.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanWait != b.MeanWait || a.Completed != b.Completed || a.Fairness != b.Fairness {
		t.Errorf("worker-pool aggregate differs from serial:\n%+v\n%+v", a, b)
	}
	// Workers beyond Reps are harmless (pool is capped at Reps).
	pooled.Workers = 64
	c, err := pooled.Run(system.Default())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanWait != c.MeanWait {
		t.Errorf("oversized worker pool changed the aggregate: %v vs %v", a.MeanWait, c.MeanWait)
	}
}

// BenchmarkRunnerParallel times a batch of 2·GOMAXPROCS replications of
// the default model under LERT on the runner's worker pool, one worker
// per P, and reports aggregate events/sec across the batch: multi-core
// simulation throughput, which scales with cores while each worker owns
// its own model.
func BenchmarkRunnerParallel(b *testing.B) {
	cfg := system.Default()
	cfg.PolicyKind = policy.LERT
	r := Runner{Reps: 2 * runtime.GOMAXPROCS(0), BaseSeed: 1, Warmup: 500, Measure: 4000, Parallel: true}
	var events uint64
	for i := 0; i < b.N; i++ {
		agg, err := r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = agg.Events
	}
	if events == 0 {
		b.Fatal("the batch fired no events")
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func TestRunToPrecision(t *testing.T) {
	r := Runner{Reps: 2, BaseSeed: 5, Warmup: 500, Measure: 4000, Parallel: true}
	agg, reps, err := r.RunToPrecision(system.Default(), 0.10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if reps < 2 || reps > 16 {
		t.Errorf("reps = %d outside [2,16]", reps)
	}
	if agg.MeanWait.Mean <= 0 {
		t.Error("degenerate aggregate")
	}
	// Either precision was met or the cap was hit.
	rel := agg.MeanWait.HalfWide / agg.MeanWait.Mean
	if rel > 0.10 && reps < 16 {
		t.Errorf("stopped early at rel width %v with %d reps", rel, reps)
	}

	if _, _, err := r.RunToPrecision(system.Default(), 0, 4); err == nil {
		t.Error("non-positive relWidth accepted")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := (Runner{Reps: 0}).Run(system.Default()); err == nil {
		t.Error("invalid runner accepted")
	}
	bad := system.Default()
	bad.NumSites = 0
	if _, err := tiny().Run(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTable5And6Grids(t *testing.T) {
	t5, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5) != 6 || len(t6) != 6 {
		t.Fatalf("grid rows = %d/%d, want 6/6", len(t5), len(t6))
	}
	for _, row := range t5 {
		if len(row.Cells) != 12 {
			t.Fatalf("row %s has %d cells, want 12", row.Ratio.Label(), len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.Value < 0 || c.Value > 1 {
				t.Errorf("WIF %v outside [0,1]", c.Value)
			}
		}
	}
	// Table 6's factors are generally much larger than Table 5's.
	mean := func(rows []FactorRow) float64 {
		sum, n := 0.0, 0
		for _, r := range rows {
			for _, c := range r.Cells {
				sum += c.Value
				n++
			}
		}
		return sum / float64(n)
	}
	if mean(t6) <= mean(t5) {
		t.Errorf("mean FIF (%v) not above mean WIF (%v)", mean(t6), mean(t5))
	}
}

func TestTable8Shape(t *testing.T) {
	rows, err := Table8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table8ThinkTimes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table8ThinkTimes))
	}
	for i, row := range rows {
		if row.X != Table8ThinkTimes[i] {
			t.Errorf("row %d X = %v", i, row.X)
		}
		for p, impr := range row.VsLocal {
			if impr <= 0 {
				t.Errorf("think %v: policy %d improvement %v not positive", row.X, p, impr)
			}
		}
	}
	// Utilization falls and W_LOCAL falls as think time grows.
	for i := 1; i < len(rows); i++ {
		if rows[i].RhoC >= rows[i-1].RhoC {
			t.Errorf("rho_c not decreasing with think time: %v -> %v", rows[i-1].RhoC, rows[i].RhoC)
		}
		if rows[i].WLocal >= rows[i-1].WLocal {
			t.Errorf("W_LOCAL not decreasing with think time: %v -> %v", rows[i-1].WLocal, rows[i].WLocal)
		}
	}
}

func TestTable9Shape(t *testing.T) {
	rows, err := Table9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table9MPLs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table9MPLs))
	}
	// W_LOCAL and utilization grow with mpl.
	for i := 1; i < len(rows); i++ {
		if rows[i].WLocal <= rows[i-1].WLocal {
			t.Errorf("W_LOCAL not increasing with mpl")
		}
		if rows[i].RhoC <= rows[i-1].RhoC {
			t.Errorf("rho_c not increasing with mpl")
		}
	}
}

func TestTableMsgLengthDemandAwareEdge(t *testing.T) {
	r := Runner{Reps: 2, BaseSeed: 1, Warmup: 2000, Measure: 20000}
	short, err := TableMsgLength(r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	long, err := TableMsgLength(r, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports that the demand-aware policies' edge over BNQ
	// grows with msg_length. In our model BNQRD's edge holds roughly flat
	// and LERT's shrinks, eroded by ring queueing that Figure 6's cost
	// function does not price (divergence analyzed in EXPERIMENTS.md).
	// Assert the stable parts: both policies keep beating BNQ at both
	// message lengths, and the ring load grows with msg_length.
	for _, row := range []MsgLengthRow{short, long} {
		if row.VsBNQRD <= 0 || row.VsLERT <= 0 {
			t.Errorf("msg %v: demand-aware policy not beating BNQ: %+v", row.MsgLength, row)
		}
	}
	// Heavier messages load the ring roughly proportionally.
	if long.SubnetBNQ <= short.SubnetBNQ {
		t.Errorf("subnet utilization did not grow with msg_length: %v vs %v",
			short.SubnetBNQ, long.SubnetBNQ)
	}
}

func TestTable10Capacity(t *testing.T) {
	r := Runner{Reps: 1, BaseSeed: 3, Warmup: 1000, Measure: 10000}
	rows, err := Table10(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table10Targets) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table10Targets))
	}
	for i, row := range rows {
		// LERT must sustain at least as many terminals as LOCAL.
		if row.MaxLERT < row.MaxLocal {
			t.Errorf("target %v: LERT max mpl %d < LOCAL %d", row.Target, row.MaxLERT, row.MaxLocal)
		}
		// Rows are monotone in the target.
		if i > 0 && (row.MaxLocal < rows[i-1].MaxLocal || row.MaxLERT < rows[i-1].MaxLERT) {
			t.Errorf("capacity not monotone in target at row %d", i)
		}
	}
	// The paper's headline: 20–50%% more terminals under LERT. Allow a
	// wide band for the tiny runner.
	first := rows[0]
	if first.MaxLocal > 0 {
		gain := float64(first.MaxLERT-first.MaxLocal) / float64(first.MaxLocal)
		if gain < 0.05 {
			t.Errorf("capacity gain = %v, want noticeable (> 5%%)", gain)
		}
	}
}

func TestTable11Shape(t *testing.T) {
	rows, err := Table11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table11Sites) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table11Sites))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SubnetBNQ <= rows[i-1].SubnetBNQ {
			t.Errorf("subnet utilization not increasing with sites")
		}
	}
	// The improvement peaks in the interior (6–8 sites), not at 2 or 10.
	best := 0
	for i, row := range rows {
		if row.ImprLERT > rows[best].ImprLERT {
			best = i
		}
	}
	if rows[best].NumSites == 2 {
		t.Errorf("LERT improvement maximal at 2 sites; paper peaks at 6-8")
	}
	for _, row := range rows {
		if row.ImprLERT <= 0 || row.ImprBNQ <= 0 {
			t.Errorf("sites %d: non-positive improvement", row.NumSites)
		}
	}
}

func TestTable12Shape(t *testing.T) {
	rows, err := Table12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table12Probs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Table12Probs))
	}
	// ρ_d/ρ_c grows with p_io; F_LOCAL crosses from negative to positive.
	for i := 1; i < len(rows); i++ {
		if rows[i].UtilRatio <= rows[i-1].UtilRatio {
			t.Errorf("utilization ratio not increasing with p_io")
		}
	}
	if rows[0].FLocal >= 0 {
		t.Errorf("F_LOCAL(0.3) = %v, want negative", rows[0].FLocal)
	}
	if rows[len(rows)-1].FLocal <= 0 {
		t.Errorf("F_LOCAL(0.8) = %v, want positive", rows[len(rows)-1].FLocal)
	}
	// Dynamic allocation shrinks |F| at the skewed mixes.
	for _, i := range []int{0, len(rows) - 1} {
		if rows[i].FImprLERT <= 0 {
			t.Errorf("p_io %v: LERT fairness improvement %v not positive",
				rows[i].ClassIOProb, rows[i].FImprLERT)
		}
	}
}

func TestRunPoliciesOrder(t *testing.T) {
	aggs, err := tiny().RunPolicies(system.Default(), []policy.Kind{policy.Local, policy.LERT})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Policy != "LOCAL" || aggs[1].Policy != "LERT" {
		t.Errorf("policy order = %q/%q", aggs[0].Policy, aggs[1].Policy)
	}
}

func TestCrossoverMPL(t *testing.T) {
	rows := []ImprovementRow{
		{X: 10, WLocal: 10},
		{X: 20, WLocal: 30},
	}
	x, ok := CrossoverMPL(rows, 20)
	if !ok || math.Abs(x-15) > 1e-9 {
		t.Errorf("crossover = %v/%v, want 15/true", x, ok)
	}
	if _, ok := CrossoverMPL(rows, 99); ok {
		t.Error("crossover found beyond data range")
	}
}

func TestFairnessImprovement(t *testing.T) {
	if got := fairnessImprovement(-0.4, -0.1); math.Abs(got-75) > 1e-9 {
		t.Errorf("fairnessImprovement(-0.4,-0.1) = %v, want 75", got)
	}
	if got := fairnessImprovement(0.2, 0.3); math.Abs(got+50) > 1e-9 {
		t.Errorf("worsened fairness = %v, want -50", got)
	}
	if got := fairnessImprovement(0, 0.3); got != 0 {
		t.Errorf("zero baseline = %v, want 0", got)
	}
}
