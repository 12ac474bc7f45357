package system

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/policy"
)

// overloadCfg is the shared small-horizon configuration for the overload
// extension's tests: 4 sites, audited, digest on.
func overloadCfg() Config {
	cfg := Default()
	cfg.NumSites = 4
	cfg.MPL = 5
	cfg.Warmup = 500
	cfg.Measure = 6000
	cfg.Seed = 7
	cfg.Audit = true
	cfg.TraceDigest = true
	return cfg
}

func runOverload(t *testing.T, cfg Config) Results {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if err := s.Audit(); err != nil {
		t.Fatalf("auditor violation: %v", err)
	}
	return r
}

func TestOverloadConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"all disabled", func(c *Config) {}, true},
		{"poisson", func(c *Config) { c.Arrival = arrival.DefaultPoisson(0.2) }, true},
		{"mmpp", func(c *Config) { c.Arrival = arrival.DefaultMMPP(0.2) }, true},
		{"zero rate", func(c *Config) { c.Arrival = arrival.Config{Enabled: true, Process: arrival.Poisson} }, false},
		{"mmpp factor below one", func(c *Config) {
			c.Arrival = arrival.DefaultMMPP(0.2)
			c.Arrival.BurstFactor = 0.5
		}, false},
		{"deadline default", func(c *Config) { c.Deadline = DefaultDeadline() }, true},
		{"deadline zero budget", func(c *Config) { c.Deadline = DeadlineConfig{Enabled: true} }, false},
		{"deadline nan", func(c *Config) { c.Deadline = DeadlineConfig{Enabled: true, Deadline: math.NaN()} }, false},
		{"hedge default", func(c *Config) { c.Hedge = DefaultHedge() }, true},
		{"hedge quantile one", func(c *Config) { c.Hedge = HedgeConfig{Enabled: true, Quantile: 1, MinDelay: 10} }, false},
		{"hedge zero delay", func(c *Config) { c.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9} }, false},
		{"hedge inf delay", func(c *Config) {
			c.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: math.Inf(1)}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := overloadCfg()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestOpenArrivalsPoisson: the open Poisson source drives the system at
// the configured offered load; throughput tracks it and the auditors
// stay quiet with the closed-population bound waived.
func TestOpenArrivalsPoisson(t *testing.T) {
	cfg := overloadCfg()
	cfg.Arrival = arrival.DefaultPoisson(0.2)
	r := runOverload(t, cfg)
	horizon := cfg.Warmup + cfg.Measure
	got := float64(r.OpenArrivals) / horizon
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("realized arrival rate %v, want ≈0.2", got)
	}
	if r.Completed == 0 {
		t.Fatal("no completions under open arrivals")
	}
	// Offered load 0.2 is well under capacity (≈0.38), so almost every
	// arrival inside the window completes.
	if math.Abs(r.Throughput-0.2) > 0.03 {
		t.Fatalf("throughput %v, want ≈ offered load 0.2", r.Throughput)
	}
	if r.RespQuantiles.P50 <= 0 || r.RespQuantiles.P99 < r.RespQuantiles.P50 {
		t.Fatalf("implausible quantiles %+v", r.RespQuantiles)
	}
}

// TestOpenArrivalsMMPPDeterminism: two same-seed bursty runs are
// event-for-event identical.
func TestOpenArrivalsMMPPDeterminism(t *testing.T) {
	cfg := overloadCfg()
	cfg.Arrival = arrival.DefaultMMPP(0.2)
	a := runOverload(t, cfg)
	b := runOverload(t, cfg)
	if a.TraceDigest == 0 || a.TraceDigest != b.TraceDigest {
		t.Fatalf("same-seed MMPP digests differ: %#x vs %#x", a.TraceDigest, b.TraceDigest)
	}
	if a.Completed != b.Completed || a.OpenArrivals != b.OpenArrivals {
		t.Fatalf("same-seed MMPP results differ: %+v vs %+v", a, b)
	}
	if a.OpenArrivals == 0 {
		t.Fatal("MMPP source produced no arrivals")
	}
}

// TestDeadlineLedger: a tight deadline produces both met and missed
// queries, every miss is an abort and a rejection, and the
// deadline-conservation auditor holds throughout.
func TestDeadlineLedger(t *testing.T) {
	cfg := overloadCfg()
	cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: 40}
	r := runOverload(t, cfg)
	if r.DeadlineMet == 0 || r.DeadlineMisses == 0 {
		t.Fatalf("want both met and missed deadlines, got met=%d missed=%d",
			r.DeadlineMet, r.DeadlineMisses)
	}
	if r.QueriesAborted != r.DeadlineMisses {
		t.Fatalf("aborted %d != missed %d", r.QueriesAborted, r.DeadlineMisses)
	}
	if r.QueriesRejected < r.QueriesAborted {
		t.Fatalf("rejected %d < aborted %d (every abort is a rejection)",
			r.QueriesRejected, r.QueriesAborted)
	}
}

// TestHedgingRacesAndWins: under load with remote transfers, hedges
// launch and some clones win; the ledgers balance at every event.
func TestHedgingRacesAndWins(t *testing.T) {
	cfg := overloadCfg()
	cfg.MPL = 20
	cfg.ThinkTime = 150
	cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
	r := runOverload(t, cfg)
	if r.Hedged == 0 {
		t.Fatal("no hedges launched under load")
	}
	if r.HedgeWins > r.Hedged {
		t.Fatalf("wins %d exceed launches %d", r.HedgeWins, r.Hedged)
	}
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
}

// TestQuantileBracketsExact: the histogram's p50 and p95 must sit near
// the exact sample quantiles of a traced run's responses (the
// satellite's accuracy claim, end to end through the system layer).
func TestQuantileBracketsExact(t *testing.T) {
	cfg := overloadCfg()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	cfg.Trace = tr
	r := runOverload(t, cfg)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var resp []float64
	for _, line := range lines[1:] { // skip header
		f := strings.Split(line, ",")
		v, err := strconv.ParseFloat(f[7], 64)
		if err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		resp = append(resp, v)
	}
	if len(resp) < 100 {
		t.Fatalf("only %d traced completions", len(resp))
	}
	sort.Float64s(resp)
	for _, tc := range []struct {
		q    float64
		got  float64
		name string
	}{
		{0.5, r.RespQuantiles.P50, "p50"},
		{0.95, r.RespQuantiles.P95, "p95"},
	} {
		exact := resp[int(math.Ceil(tc.q*float64(len(resp))))-1]
		// The traced responses are %.4f-rounded, so allow the histogram's
		// 2% relative error plus a little rounding slack.
		if math.Abs(tc.got-exact) > 0.021*exact+1e-3 {
			t.Fatalf("histogram %s %v vs exact %v", tc.name, tc.got, exact)
		}
	}
}

// TestOverloadChaosAllSubsystems is the acceptance sweep: bursty MMPP
// arrivals, deadlines, hedging, fault injection, and admission control
// all enabled at once, audited, across four policies — zero violations
// and a balanced deadline ledger on every run.
func TestOverloadChaosAllSubsystems(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Local, policy.BNQ, policy.BNQRD, policy.LERT} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := overloadCfg()
			cfg.PolicyKind = kind
			cfg.InfoMode = InfoPeriodic
			cfg.InfoPeriod = 25
			cfg.Arrival = arrival.DefaultMMPP(0.2)
			cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: 250}
			cfg.Hedge = HedgeConfig{Enabled: true, Quantile: 0.9, MinDelay: 25}
			cfg.Fault = fault.Default()
			cfg.Fault.MTTF = 2000
			cfg.Fault.MTTR = 300
			cfg.Fault.DropProb = 0.03
			cfg.Admission = DefaultAdmission()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := s.Run()
			if err := s.Audit(); err != nil {
				t.Fatalf("auditor violation: %v", err)
			}
			if r.Completed == 0 {
				t.Fatal("no completions under chaos")
			}
			// The final ledger must balance by hand, not just via the
			// auditor: armed == met + missed + cancelled + pending, and
			// launched == wins + cancelled + racing.
			tot := s.overloadTotals()
			if tot.Armed != tot.Met+tot.Missed+tot.Cancelled+uint64(tot.Pending) {
				t.Fatalf("deadline ledger unbalanced: %+v", tot)
			}
			if tot.HedgesLaunched != tot.HedgeWins+tot.HedgeCancelled+uint64(tot.HedgePending) {
				t.Fatalf("hedge ledger unbalanced: %+v", tot)
			}
			if tot.HedgePending < 0 {
				t.Fatalf("negative racing-clone census %d", tot.HedgePending)
			}
		})
	}
}

// TestClosedModeUnaffectedByHistogram: the always-on histograms must not
// disturb a plain closed run — digest equality with the recorded golden
// is covered by TestGoldenDigestsWithKnobsDisabled; here two fresh runs
// with and without the Deadline/Hedge structs zero-valued confirm the
// zero values change nothing.
func TestClosedModeUnaffectedByHistogram(t *testing.T) {
	cfg := overloadCfg()
	a := runOverload(t, cfg)
	cfg2 := overloadCfg()
	cfg2.Deadline = DeadlineConfig{}
	cfg2.Hedge = HedgeConfig{}
	cfg2.Arrival = arrival.Config{}
	b := runOverload(t, cfg2)
	if a.TraceDigest != b.TraceDigest {
		t.Fatalf("zero-valued overload knobs changed the digest: %#x vs %#x",
			a.TraceDigest, b.TraceDigest)
	}
}
