// Benchmarks that regenerate every table of the paper's evaluation, one
// bench per table. Each iteration executes the table's full harness at a
// reduced (benchmark-sized) replication budget and reports the table's
// headline quantity as a custom metric, so `go test -bench=.` both times
// the harnesses and re-derives the paper's numbers. cmd/dqtables runs the
// same harnesses at full budget.
package dqalloc

import (
	"testing"

	"dqalloc/internal/exper"
	"dqalloc/internal/policy"
	"dqalloc/internal/system"
)

// benchRunner is the replication budget used by the table benchmarks.
func benchRunner() exper.Runner {
	return exper.Runner{Reps: 1, BaseSeed: 1, Warmup: 1000, Measure: 10000}
}

// BenchmarkTable5WIF regenerates Table 5 (Waiting Improvement Factor
// grid, exact MVA) and reports the grid's mean WIF.
func BenchmarkTable5WIF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table5()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, row := range rows {
			for _, c := range row.Cells {
				sum += c.Value
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "meanWIF")
	}
}

// BenchmarkTable6FIF regenerates Table 6 (Fairness Improvement Factor
// grid, exact MVA) and reports the grid's mean FIF.
func BenchmarkTable6FIF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table6()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, row := range rows {
			for _, c := range row.Cells {
				sum += c.Value
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "meanFIF")
	}
}

// BenchmarkTable8ThinkTime regenerates Table 8 (waiting time vs think
// time, four policies) and reports LERT's improvement over LOCAL at the
// default think time 350.
func BenchmarkTable8ThinkTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table8(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.X == 350 {
				b.ReportMetric(row.VsLocal[2], "LERTimpr%")
			}
		}
	}
}

// BenchmarkTableMsgLength regenerates the msg_length = 2.0 prose variant
// and reports BNQRD's and LERT's improvements over BNQ.
func BenchmarkTableMsgLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := exper.TableMsgLength(benchRunner(), 2.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.VsBNQRD, "BNQRDvsBNQ%")
		b.ReportMetric(row.VsLERT, "LERTvsBNQ%")
	}
}

// BenchmarkTable9MPL regenerates Table 9 (waiting time vs mpl) and
// reports LERT's improvement over LOCAL at mpl 20.
func BenchmarkTable9MPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table9(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.X == 20 {
				b.ReportMetric(row.VsLocal[2], "LERTimpr%")
			}
		}
	}
}

// BenchmarkTable10Capacity regenerates Table 10 (maximum mpl vs response
// time target) and reports LERT's capacity gain at the 40-unit target.
func BenchmarkTable10Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table10(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		first := rows[0]
		if first.MaxLocal > 0 {
			gain := float64(first.MaxLERT-first.MaxLocal) / float64(first.MaxLocal) * 100
			b.ReportMetric(gain, "capGain%")
		}
	}
}

// BenchmarkTable11Sites regenerates Table 11 (waiting time and subnet
// utilization vs number of sites) and reports the site count at which
// LERT's improvement peaks.
func BenchmarkTable11Sites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table11(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		best := rows[0]
		for _, row := range rows[1:] {
			if row.ImprLERT > best.ImprLERT {
				best = row
			}
		}
		b.ReportMetric(float64(best.NumSites), "peakSites")
		b.ReportMetric(best.ImprLERT, "peakImpr%")
	}
}

// BenchmarkTable12Fairness regenerates Table 12 (W̄ and F vs
// class_io_prob) and reports LERT's fairness improvement at p_io = 0.3.
func BenchmarkTable12Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table12(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FImprLERT, "FimprLERT%")
	}
}

// BenchmarkSimulationThroughput times the raw simulator on the default
// configuration — events processed per simulated-time horizon.
func BenchmarkSimulationThroughput(b *testing.B) {
	cfg := system.Default()
	cfg.Warmup = 500
	cfg.Measure = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		sys, err := system.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run()
	}
}

// BenchmarkAblationStaleness compares LERT under perfect vs periodically
// broadcast load information (the Section 4.4 future-work dimension).
func BenchmarkAblationStaleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		fresh := system.Default()
		fresh.PolicyKind = policy.LERT
		aggF, err := r.Run(fresh)
		if err != nil {
			b.Fatal(err)
		}
		stale := fresh
		stale.InfoMode = system.InfoPeriodic
		stale.InfoPeriod = 100
		aggS, err := r.Run(stale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aggF.MeanWait.Mean, "Wfresh")
		b.ReportMetric(aggS.MeanWait.Mean, "Wstale100")
	}
}

// BenchmarkAblationReplication sweeps copies-per-object on the partially
// replicated extension and reports LERT's improvement over the static
// nearest-copy allocation at full replication.
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.ReplicationSweep(benchRunner(), 60)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Impr, "fullReplImpr%")
		b.ReportMetric(rows[0].Impr, "oneCopyImpr%")
	}
}

// BenchmarkAblationMigration measures what mid-execution migration adds
// on top of LOCAL and LERT allocation.
func BenchmarkAblationMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.MigrationAblation(benchRunner(), []policy.Kind{policy.Local, policy.LERT})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Impr, "onLOCAL%")
		b.ReportMetric(rows[1].Impr, "onLERT%")
	}
}

// BenchmarkAblationProbes compares full-information LERT against its
// probing variant with 1 and 2 probes per decision.
func BenchmarkAblationProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.ProbeSweep(benchRunner(), []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WProbeRT, "Wprobe1")
		b.ReportMetric(rows[1].WProbeRT, "Wprobe2")
	}
}

// BenchmarkAblationSensitivity runs the imperfect-information
// sensitivity harness (EXPERIMENTS.md "Imperfect information") at
// benchmark budget and reports LERT's waiting time under exact vs
// sigma-1 estimation error.
func BenchmarkAblationSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.SensitivitySweep(benchRunner(),
			[]policy.Kind{policy.BNQ, policy.LERT},
			[]float64{0, 1}, []float64{40}, []float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Policy == "LERT" && row.Axis == "noise" {
				switch row.Value {
				case 0:
					b.ReportMetric(row.MeanWait, "Wexact")
				case 1:
					b.ReportMetric(row.MeanWait, "Wsigma1")
				}
			}
		}
	}
}

// BenchmarkAblationEstimates compares LERT with class-mean estimates
// against the exact-demand oracle (the Section 1.2.2 knowledge model).
func BenchmarkAblationEstimates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		mean := system.Default()
		aggMean, err := r.Run(mean)
		if err != nil {
			b.Fatal(err)
		}
		oracle := mean
		oracle.EstimateMode = EstimateActual
		aggOracle, err := r.Run(oracle)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aggMean.MeanWait.Mean, "WclassMean")
		b.ReportMetric(aggOracle.MeanWait.Mean, "Woracle")
	}
}
