package system

import (
	"math"
	"testing"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
)

// sanitize folds an arbitrary fuzzed float into [lo, hi], mapping
// NaN/Inf to lo.
func sanitize(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	v = math.Abs(v)
	return lo + math.Mod(v, hi-lo)
}

// FuzzArrivalConfig drives short audited runs across the overload
// knob space — arrival process and rates, burst parameters, deadlines,
// hedging, fault injection — asserting that no auditor fires and no
// event ledger leaks, whatever the combination.
func FuzzArrivalConfig(f *testing.F) {
	f.Add(uint64(1), 0.2, 4.0, 400.0, 100.0, 250.0, 0.9, 25.0, true, true, true)
	f.Add(uint64(2), 0.35, 1.5, 50.0, 20.0, 60.0, 0.5, 5.0, false, true, false)
	f.Add(uint64(3), 0.05, 10.0, 1000.0, 10.0, 500.0, 0.99, 100.0, true, false, true)
	f.Add(uint64(4), 0.4, 2.0, 200.0, 200.0, 100.0, 0.75, 50.0, false, false, false)
	f.Fuzz(func(t *testing.T, seed uint64, rate, burst, calm, burstDwell,
		deadline, quantile, minDelay float64, mmpp, hedge, faults bool) {
		cfg := Default()
		cfg.NumSites = 3
		cfg.MPL = 3
		cfg.Warmup = 50
		cfg.Measure = 500
		cfg.Seed = seed%1024 + 1
		cfg.Audit = true
		cfg.Arrival = arrival.Config{
			Enabled: true,
			Process: arrival.Poisson,
			Rate:    sanitize(rate, 0.01, 0.5),
		}
		if mmpp {
			cfg.Arrival.Process = arrival.MMPP
			cfg.Arrival.BurstFactor = sanitize(burst, 1, 12)
			cfg.Arrival.CalmMean = sanitize(calm, 10, 1000)
			cfg.Arrival.BurstMean = sanitize(burstDwell, 10, 1000)
		}
		cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: sanitize(deadline, 20, 800)}
		if hedge {
			cfg.Hedge = HedgeConfig{
				Enabled:  true,
				Quantile: sanitize(quantile, 0.05, 0.99),
				MinDelay: sanitize(minDelay, 1, 200),
			}
		}
		if faults {
			cfg.Fault = fault.Default()
			cfg.Fault.MTTF = 1500
			cfg.Fault.MTTR = 200
			cfg.Fault.DropProb = 0.05
		}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if err := s.Audit(); err != nil {
			t.Fatalf("auditor violation: %v", err)
		}
		l := s.led
		if l.Armed != l.Met+l.Missed+l.Cancelled+uint64(l.Pending) {
			t.Fatalf("deadline ledger leaked: %+v", l)
		}
		if l.Hedges != l.HedgeWins+l.HedgeCancelled+uint64(l.Racing) {
			t.Fatalf("hedge ledger leaked: %+v", l)
		}
		if l.Pending < 0 || l.Racing < 0 {
			t.Fatalf("negative pending census: %+v", l)
		}
	})
}
