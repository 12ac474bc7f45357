package system

import (
	"testing"

	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/workload"
)

// imperfectCfg is the shared short-horizon configuration for the
// imperfect-information tests, with every robustness knob explicitly at
// its zero value.
func imperfectCfg(kind policy.Kind, mode InfoMode) Config {
	cfg := Default()
	cfg.PolicyKind = kind
	cfg.Seed = 3
	cfg.Warmup = 500
	cfg.Measure = 6000
	cfg.Audit = true
	cfg.TraceDigest = true
	cfg.Noise = noise.Config{}
	cfg.Tuning = policy.Tuning{}
	cfg.Admission = AdmissionConfig{}
	if mode == InfoPeriodic {
		cfg.InfoMode = InfoPeriodic
		cfg.InfoPeriod = 40
	}
	return cfg
}

func runDigest(t *testing.T, cfg Config) Results {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	return r
}

// goldenDigests pins the event-stream digests of every policy, under
// perfect and periodic load information, to the values captured before
// the imperfect-information extension landed. Both the knobs-disabled
// identity test below and the pooled-kernel equivalence test in
// digestequiv_test.go assert against this same table: any kernel or
// model change that alters the event stream trips them.
var goldenDigests = []struct {
	mode InfoMode
	kind policy.Kind
	want uint64
}{
	{InfoPerfect, policy.Local, 0x31d6acb070b2ccaa},
	{InfoPerfect, policy.Random, 0x02ba549ddcb61f83},
	{InfoPerfect, policy.BNQ, 0x380da894aab82ad0},
	{InfoPerfect, policy.BNQRD, 0x1a2f4d1c024bad78},
	{InfoPerfect, policy.LERT, 0x67c72e035a53b4d9},
	{InfoPerfect, policy.Work, 0x1f71c2e087a4026b},
	{InfoPeriodic, policy.Local, 0xea7ee7abc2c9d700},
	{InfoPeriodic, policy.Random, 0xa980e348d693ffdc},
	{InfoPeriodic, policy.BNQ, 0x97c6c670b758fa51},
	{InfoPeriodic, policy.BNQRD, 0x3418525d8392d3de},
	{InfoPeriodic, policy.LERT, 0x2dbc0fa32af8efe8},
	{InfoPeriodic, policy.Work, 0xa8b9b21c6f758680},
}

// TestGoldenDigestsWithKnobsDisabled: with noise, anti-herd tuning, and
// admission control all disabled, the model must remain bit-identical to
// the pre-extension tree.
func TestGoldenDigestsWithKnobsDisabled(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run(g.mode.String()+"/"+g.kind.String(), func(t *testing.T) {
			r := runDigest(t, imperfectCfg(g.kind, g.mode))
			if r.TraceDigest != g.want {
				t.Errorf("digest %#x, want golden %#x — disabled knobs changed the event stream",
					r.TraceDigest, g.want)
			}
		})
	}
}

// TestNoiseZeroSigmaDigestMatchesDisabled: an enabled injector with zero
// magnitudes multiplies every estimate by exactly 1 and touches only its
// own dedicated stream, so the event stream must match a disabled run
// bit for bit.
func TestNoiseZeroSigmaDigestMatchesDisabled(t *testing.T) {
	for _, kind := range []policy.Kind{policy.LERT, policy.Work} {
		base := runDigest(t, imperfectCfg(kind, InfoPerfect))
		cfg := imperfectCfg(kind, InfoPerfect)
		cfg.Noise = noise.Config{Enabled: true, Dist: noise.Lognormal}
		noisy := runDigest(t, cfg)
		if noisy.TraceDigest != base.TraceDigest {
			t.Errorf("%v: zero-sigma noise digest %#x != disabled %#x",
				kind, noisy.TraceDigest, base.TraceDigest)
		}
	}
}

// TestNoiseChangesAllocations: real noise must actually divert the
// cost-based policies (different event stream) while staying fully
// audited, and the realized-error statistics must reflect it.
func TestNoiseChangesAllocations(t *testing.T) {
	base := runDigest(t, imperfectCfg(policy.LERT, InfoPerfect))
	cfg := imperfectCfg(policy.LERT, InfoPerfect)
	cfg.Noise = noise.Default()
	r := runDigest(t, cfg)
	if r.TraceDigest == base.TraceDigest {
		t.Error("lognormal sigma 0.5 left the event stream unchanged")
	}
	if r.Completed == 0 {
		t.Fatal("no completions under noise")
	}
	// EstPageCPU is exact without noise, so any positive mean error is
	// injector-caused; EstReads carries intrinsic class-mean spread, which
	// the injected error must widen.
	if r.EstCPUErr <= 0 {
		t.Errorf("EstCPUErr = %v, want > 0 under injected noise", r.EstCPUErr)
	}
	if r.EstReadsErr <= base.EstReadsErr {
		t.Errorf("EstReadsErr = %v, want above the intrinsic %v", r.EstReadsErr, base.EstReadsErr)
	}
	if base.EstCPUErr != 0 {
		t.Errorf("baseline EstCPUErr = %v, want exactly 0 (class-mean estimates)", base.EstCPUErr)
	}
}

// TestAdmissionNonBindingMatchesDisabled: admission control with a bound
// the closed population can never reach must schedule no events, draw no
// random numbers, and leave the event stream bit-identical.
func TestAdmissionNonBindingMatchesDisabled(t *testing.T) {
	base := runDigest(t, imperfectCfg(policy.BNQ, InfoPerfect))
	cfg := imperfectCfg(policy.BNQ, InfoPerfect)
	cfg.Admission = AdmissionConfig{Enabled: true, MaxQueue: cfg.NumSites*cfg.MPL + 1, Defer: true, DeferDelay: 5, MaxDefers: 3}
	r := runDigest(t, cfg)
	if r.TraceDigest != base.TraceDigest {
		t.Errorf("non-binding admission digest %#x != disabled %#x", r.TraceDigest, base.TraceDigest)
	}
	if r.QueriesShed != 0 || r.QueriesDeferred != 0 {
		t.Errorf("non-binding admission shed %d / deferred %d queries", r.QueriesShed, r.QueriesDeferred)
	}
}

// TestAdmissionShedsAndDefersUnderOverload: a tight bound under the herd-
// prone stale-information configuration must visibly defer and shed,
// keep every terminal cycling, and hold the conservation auditor's
// admission identities green throughout.
func TestAdmissionShedsAndDefersUnderOverload(t *testing.T) {
	cfg := imperfectCfg(policy.BNQ, InfoPeriodic)
	cfg.Admission = AdmissionConfig{Enabled: true, MaxQueue: 6, Defer: true, DeferDelay: 5, MaxDefers: 2}
	cfg.Noise = noise.Default()
	r := runDigest(t, cfg) // runDigest fails the test on any audit violation
	if r.QueriesDeferred == 0 {
		t.Error("overloaded run deferred nothing")
	}
	if r.QueriesShed == 0 {
		t.Error("overloaded run shed nothing")
	}
	if r.QueriesRejected < r.QueriesShed {
		t.Errorf("rejections %d below sheds %d", r.QueriesRejected, r.QueriesShed)
	}
	if r.Completed == 0 {
		t.Fatal("no completions — terminals stopped cycling")
	}
	// Shedding returns terminals to thinking, so the closed loop keeps
	// producing work at a healthy rate.
	if r.Throughput <= 0 {
		t.Errorf("throughput %v under admission control", r.Throughput)
	}
}

// TestAdmissionShedImmediatelyWithoutDefer: Defer off must shed on the
// first bounce and never park queries.
func TestAdmissionShedImmediatelyWithoutDefer(t *testing.T) {
	cfg := imperfectCfg(policy.BNQ, InfoPeriodic)
	cfg.Admission = AdmissionConfig{Enabled: true, MaxQueue: 6}
	r := runDigest(t, cfg)
	if r.QueriesDeferred != 0 {
		t.Errorf("defer-off run deferred %d queries", r.QueriesDeferred)
	}
	if r.QueriesShed == 0 {
		t.Error("defer-off overloaded run shed nothing")
	}
}

// TestAntiHerdReducesHerdTransfers: under stale load information the
// plain selector herds; hysteresis plus power-of-two sampling must cut
// the measured herd-transfer fraction, audited throughout.
func TestAntiHerdReducesHerdTransfers(t *testing.T) {
	base := runDigest(t, imperfectCfg(policy.BNQ, InfoPeriodic))
	if base.HerdTransfers == 0 {
		t.Fatal("stale-information baseline shows no herd transfers; the metric is broken")
	}
	cfg := imperfectCfg(policy.BNQ, InfoPeriodic)
	cfg.Tuning = policy.Tuning{Hysteresis: 0.3, PowerK: 2, RandomTies: true}
	tuned := runDigest(t, cfg)
	if tuned.Completed == 0 {
		t.Fatal("no completions under tuning")
	}
	if tuned.HerdFrac >= base.HerdFrac {
		t.Errorf("tuned herd fraction %.3f not below baseline %.3f", tuned.HerdFrac, base.HerdFrac)
	}
}

// TestMigrationUnderEstimationError: the migration extension must stay
// conservation-clean when its remaining-cost estimates are noise-misled
// — the regression guard for the estimate-based remCPU computation.
func TestMigrationUnderEstimationError(t *testing.T) {
	cfg := imperfectCfg(policy.LERT, InfoPerfect)
	cfg.Migration = DefaultMigration()
	cfg.Noise = noise.Default()
	r := runDigest(t, cfg)
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
	if r.Migrations == 0 {
		t.Skip("no migrations triggered at this seed; nothing to regress")
	}
}

// TestAllKnobsTogetherAudited: noise, anti-herd tuning, admission
// control, staleness, and migration all at once must run to completion
// with every auditor green.
func TestAllKnobsTogetherAudited(t *testing.T) {
	cfg := imperfectCfg(policy.LERT, InfoPeriodic)
	cfg.Noise = noise.Default()
	cfg.Tuning = policy.Tuning{Hysteresis: 0.2, PowerK: 3, RandomTies: true}
	cfg.Admission = DefaultAdmission()
	cfg.Migration = DefaultMigration()
	r := runDigest(t, cfg)
	if r.Completed == 0 {
		t.Fatal("no completions with all robustness knobs enabled")
	}
}

// TestImperfectConfigValidation covers the new Config fields.
func TestImperfectConfigValidation(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		cfg := Default()
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"baseline", mk(func(*Config) {}), true},
		{"noise default", mk(func(c *Config) { c.Noise = noise.Default() }), true},
		{"noise bad sigma", mk(func(c *Config) {
			c.Noise = noise.Config{Enabled: true, Dist: noise.Lognormal, ReadsSigma: -1}
		}), false},
		{"noise missing dist", mk(func(c *Config) { c.Noise = noise.Config{Enabled: true} }), false},
		{"tuning ok", mk(func(c *Config) { c.Tuning = policy.Tuning{Hysteresis: 0.2, PowerK: 2} }), true},
		{"tuning negative margin", mk(func(c *Config) { c.Tuning = policy.Tuning{Hysteresis: -0.1} }), false},
		{"tuning k above sites", mk(func(c *Config) { c.Tuning = policy.Tuning{PowerK: 7} }), false},
		{"tuning on LOCAL", mk(func(c *Config) {
			c.PolicyKind = policy.Local
			c.Tuning = policy.Tuning{Hysteresis: 0.1}
		}), false},
		{"tuning on RANDOM", mk(func(c *Config) {
			c.PolicyKind = policy.Random
			c.Tuning = policy.Tuning{PowerK: 2}
		}), false},
		{"tuning on custom policy", mk(func(c *Config) {
			c.CustomPolicy = localPolicyStub{}
			c.Tuning = policy.Tuning{Hysteresis: 0.1}
		}), false},
		{"admission default", mk(func(c *Config) { c.Admission = DefaultAdmission() }), true},
		{"admission zero bound", mk(func(c *Config) {
			c.Admission = AdmissionConfig{Enabled: true, MaxQueue: 0}
		}), false},
		{"admission defer without delay", mk(func(c *Config) {
			c.Admission = AdmissionConfig{Enabled: true, MaxQueue: 10, Defer: true}
		}), false},
		{"admission negative defers", mk(func(c *Config) {
			c.Admission = AdmissionConfig{Enabled: true, MaxQueue: 10, MaxDefers: -1}
		}), false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// localPolicyStub is a minimal custom policy for validation tests.
type localPolicyStub struct{}

func (localPolicyStub) Name() string { return "stub" }
func (localPolicyStub) Select(_ *workload.Query, arrival int, _ *policy.Env) int {
	return arrival
}
