package serve

import (
	"testing"
	"time"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// This file proves the decision-parity claim: given identical load
// tables, a serve-mode Core makes bit-identical selections to the
// sim-mode policy stack, so the simulator remains a faithful offline
// twin for policy tuning. The test mirrors every report into a
// loadinfo.Table, drives both sides with the same query sequence, and
// compares FNV-1a digests of the two decision streams.

// fnv1a folds one decision into a running FNV-1a 64 digest.
func fnv1a(h uint64, site int) uint64 {
	const prime = 0x100000001b3
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	v := uint64(site)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// simTableMirror keeps a loadinfo.Table equal to an absolute per-site
// load state by issuing the Assign/Complete diffs.
type simTableMirror struct {
	table   *loadinfo.Table
	io, cpu []int
	cw, iw  []float64
}

func newSimTableMirror(numSites int) *simTableMirror {
	return &simTableMirror{
		table: loadinfo.NewTable(numSites),
		io:    make([]int, numSites),
		cpu:   make([]int, numSites),
		cw:    make([]float64, numSites),
		iw:    make([]float64, numSites),
	}
}

func (m *simTableMirror) set(site, numIO, numCPU int, cpuWork, ioWork float64) {
	for m.io[site] < numIO {
		m.table.Assign(site, workload.IOBound)
		m.io[site]++
	}
	for m.io[site] > numIO {
		m.table.Complete(site, workload.IOBound)
		m.io[site]--
	}
	for m.cpu[site] < numCPU {
		m.table.Assign(site, workload.CPUBound)
		m.cpu[site]++
	}
	for m.cpu[site] > numCPU {
		m.table.Complete(site, workload.CPUBound)
		m.cpu[site]--
	}
	m.table.AssignWork(site, cpuWork-m.cw[site], ioWork-m.iw[site])
	m.cw[site], m.iw[site] = cpuWork, ioWork
}

// buildRefPolicy reconstructs the sim-mode policy exactly as NewCore
// derives it: the policy stream is rng.NewStream(seed).Child(1).
func buildRefPolicy(t *testing.T, cfg Config) policy.Policy {
	t.Helper()
	root := rng.NewStream(cfg.Seed)
	var pol policy.Policy
	var err error
	if cfg.Tuning.Enabled() {
		pol, err = policy.NewTuned(cfg.Policy, cfg.NumSites, cfg.Tuning, root.Child(1))
	} else {
		pol, err = policy.New(cfg.Policy, cfg.NumSites, root.Child(1))
	}
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// runParity drives both sides through steps decisions under freshly
// mirrored random load tables and returns the two digests.
func runParity(t *testing.T, cfg Config, steps int) (coreDigest, simDigest uint64) {
	t.Helper()
	clk := newFakeClock()
	cfg.Clock = clk.Now
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refPol := buildRefPolicy(t, cfg)
	mirror := newSimTableMirror(cfg.NumSites)
	refEnv := &policy.Env{
		View:     mirror.table,
		NumSites: cfg.NumSites,
		NumDisks: cfg.NumDisks,
		DiskTime: cfg.DiskTime,
		NetTime: func(q *workload.Query) float64 {
			return 2 * cfg.MsgTime * cfg.Classes[q.Class].MsgLength
		},
	}

	driver := rng.NewStream(1234)
	for step := 0; step < steps; step++ {
		// A fresh load state every step: every site reports, so the
		// serve table's optimistic deltas are cleared and both sides
		// see byte-identical views.
		for s := 0; s < cfg.NumSites; s++ {
			numIO, numCPU := driver.Intn(16), driver.Intn(16)
			cpuW := float64(driver.Intn(400)) / 8
			ioW := float64(driver.Intn(400)) / 8
			if err := core.Report(s, numIO, numCPU, cpuW, ioW, 0, 0, clk.Now()); err != nil {
				t.Fatal(err)
			}
			mirror.set(s, numIO, numCPU, cpuW, ioW)
		}
		q := &workload.Query{
			Class: driver.Intn(len(cfg.Classes)),
			Home:  driver.Intn(cfg.NumSites),
		}
		q.Exec = q.Home
		cfg.classMeans(q)
		refQ := *q

		site, out := core.Decide(q, clk.Now())
		if out != OutcomeDecided {
			t.Fatalf("step %d: outcome %v, want decided", step, out)
		}
		refSite := refPol.Select(&refQ, refQ.Home, refEnv)
		if site != refSite {
			t.Fatalf("step %d: serve chose %d, sim policy chose %d", step, site, refSite)
		}
		coreDigest = fnv1a(coreDigest, site)
		simDigest = fnv1a(simDigest, refSite)
		clk.Advance(10 * time.Millisecond)
	}
	return coreDigest, simDigest
}

func TestDecisionParityWithSimPolicies(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.BNQRD, policy.LERT, policy.Work} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Default()
			cfg.NumSites = 5
			cfg.Policy = kind
			cd, sd := runParity(t, cfg, 400)
			if cd != sd || cd == 0 {
				t.Fatalf("digest mismatch: serve %#x, sim %#x", cd, sd)
			}
		})
	}
}

func TestDecisionParityWithAntiHerdTuning(t *testing.T) {
	cfg := Default()
	cfg.NumSites = 6
	cfg.Policy = policy.LERT
	cfg.Tuning = policy.Tuning{Hysteresis: 0.15, PowerK: 2, RandomTies: true}
	cd, sd := runParity(t, cfg, 400)
	if cd != sd || cd == 0 {
		t.Fatalf("tuned digest mismatch: serve %#x, sim %#x", cd, sd)
	}
}

// TestDecisionParityStable pins the parity digest for one fixed
// scenario: any change to the serve-side decision path that alters
// selections (and would therefore break the offline-twin property)
// shows up as a digest change here.
func TestDecisionParityStable(t *testing.T) {
	cfg := Default()
	cfg.NumSites = 5
	cfg.Policy = policy.LERT
	cd, sd := runParity(t, cfg, 400)
	if cd != sd {
		t.Fatalf("digest mismatch: serve %#x, sim %#x", cd, sd)
	}
	const want uint64 = 0xb9215ae2c168fe60
	if cd != want {
		t.Fatalf("parity digest drifted: %#x, want %#x", cd, want)
	}
}
