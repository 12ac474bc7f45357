package system

import (
	"reflect"
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
)

// selfHealConfig returns an audited, digested run over a 2-copy partial
// placement with aggressive site crashes and the replica manager on.
func selfHealConfig(t *testing.T, kind policy.Kind, seed uint64) Config {
	t.Helper()
	cfg := partialConfig(t, kind, 2)
	cfg.Seed = seed
	cfg.Audit = true
	cfg.TraceDigest = true
	cfg.Fault = fault.Default()
	cfg.Fault.MTTF = 1500
	cfg.Fault.MTTR = 300
	cfg.Replication = replica.DefaultManager()
	return cfg
}

// TestSelfHealRebuildSmoke: a crash-heavy run with the manager on must
// actually rebuild replicas, stay audit-clean (including the
// replication-conservation auditor), and keep completing queries.
func TestSelfHealRebuildSmoke(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Local, policy.Random, policy.BNQ, policy.LERT} {
		t.Run(kind.String(), func(t *testing.T) {
			r := runCfg(t, selfHealConfig(t, kind, 3))
			if r.SiteCrashes == 0 {
				t.Fatal("no site crashes over ~7 MTTFs per site")
			}
			if r.ReplicasRebuilt == 0 {
				t.Error("crashes wiped copies but nothing was rebuilt")
			}
			if r.MeanRebuildLatency <= 0 {
				t.Errorf("rebuilds happened but mean latency = %v", r.MeanRebuildLatency)
			}
			if r.Completed == 0 {
				t.Error("no completions")
			}
			if r.FragAvailability <= 0 || r.FragAvailability > 1 {
				t.Errorf("fragment availability %v outside (0,1]", r.FragAvailability)
			}
			if r.MinFragAvailability > r.FragAvailability {
				t.Errorf("min fragment availability %v above mean %v",
					r.MinFragAvailability, r.FragAvailability)
			}
		})
	}
}

// TestSelfHealReplicationDigestDeterministic: the manager's events and
// draws are part of the deterministic stream — same seed, same digest
// and same results; different seed, different digest.
func TestSelfHealReplicationDigestDeterministic(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Random, policy.LERT} {
		t.Run(kind.String(), func(t *testing.T) {
			a := runCfg(t, selfHealConfig(t, kind, 3))
			b := runCfg(t, selfHealConfig(t, kind, 3))
			if a.TraceDigest != b.TraceDigest {
				t.Errorf("same seed digests differ: %x vs %x", a.TraceDigest, b.TraceDigest)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed results differ:\n%+v\nvs\n%+v", a, b)
			}
			if c := runCfg(t, selfHealConfig(t, kind, 4)); c.TraceDigest == a.TraceDigest {
				t.Errorf("different seeds share digest %x", a.TraceDigest)
			}
		})
	}
}

// TestRebuildImprovesFragAvailability: under the same crash schedule a
// rebuild-on run must keep every fragment reachable strictly more of the
// time than a static 2-copy placement — the tentpole's whole point. The
// rebuild must be fast relative to the crash rate for this to hold: the
// fragment shipments share the ring with query traffic, so a large
// FragmentSize under frequent crashes stretches the deficit windows
// until re-replication stops paying for itself.
func TestRebuildImprovesFragAvailability(t *testing.T) {
	onCfg := selfHealConfig(t, policy.LERT, 5)
	onCfg.Fault.MTTR = 600
	onCfg.Replication.FragmentSize = 1
	onCfg.Replication.RebuildDelay = 10
	on := runCfg(t, onCfg)
	offCfg := selfHealConfig(t, policy.LERT, 5)
	offCfg.Fault.MTTR = 600
	offCfg.Replication = replica.ManagerConfig{}
	off := runCfg(t, offCfg)

	if off.MinFragAvailability <= 0 || off.MinFragAvailability >= 1 {
		t.Fatalf("static placement min fragment availability %v outside (0,1); cannot compare",
			off.MinFragAvailability)
	}
	if on.MinFragAvailability <= off.MinFragAvailability {
		t.Errorf("rebuild-on min fragment availability %v not above rebuild-off %v",
			on.MinFragAvailability, off.MinFragAvailability)
	}
	if on.FragAvailability <= off.FragAvailability {
		t.Errorf("rebuild-on mean fragment availability %v not above rebuild-off %v",
			on.FragAvailability, off.FragAvailability)
	}
	if off.ReplicasRebuilt != 0 {
		t.Errorf("static placement rebuilt %d replicas", off.ReplicasRebuilt)
	}
}

// degradedConfig pins every fragment to a single copy with no rebuild
// headroom (Min = Max = 1), so a crashed holder leaves its fragments
// unreachable until repair — the degraded-read window.
func degradedConfig(t *testing.T, mode replica.DegradedMode) Config {
	t.Helper()
	cfg := partialConfig(t, policy.LERT, 1)
	cfg.Seed = 11
	cfg.Audit = true
	cfg.Fault = fault.Default()
	cfg.Fault.MTTF = 1500
	cfg.Fault.MTTR = 500
	cfg.Replication = replica.DefaultManager()
	cfg.Replication.MinCopies = 1
	cfg.Replication.MaxCopies = 1
	cfg.Replication.Degraded = mode
	return cfg
}

// TestDegradedFetchServesUnreachableFragments: in fetch mode queries for
// a downed holder's fragment execute elsewhere after paying the ring
// fetch, instead of being rejected.
func TestDegradedFetchServesUnreachableFragments(t *testing.T) {
	r := runCfg(t, degradedConfig(t, replica.DegradedFetch))
	if r.SiteCrashes == 0 {
		t.Fatal("no crashes to open a degraded window")
	}
	if r.DegradedReads == 0 {
		t.Error("single-copy placement under crashes produced no degraded reads")
	}
	if r.NoReplicaRejects != 0 {
		t.Errorf("%d NoReplica rejects in fetch mode", r.NoReplicaRejects)
	}
	if r.Completed == 0 {
		t.Error("no completions")
	}
}

// degradedSuspectConfig is degradedConfig in fetch mode with the
// gray-failure detector on, so degraded reads and suspicion penalties
// share the policy environment.
func degradedSuspectConfig(t *testing.T) Config {
	t.Helper()
	cfg := degradedConfig(t, replica.DegradedFetch)
	cfg.Suspect = loadinfo.DefaultSuspect()
	return cfg
}

// TestDegradedFetchKeepsSuspectPenalty: a degraded read swaps in the
// fetch-cost penalty for its own selection only; the suspicion
// detector's penalty hook must be back in place afterwards.
func TestDegradedFetchKeepsSuspectPenalty(t *testing.T) {
	sys, err := New(degradedSuspectConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Run()
	if err := sys.Audit(); err != nil {
		t.Fatal(err)
	}
	if r.DegradedReads == 0 {
		t.Fatal("no degraded reads to exercise the penalty swap")
	}
	if sys.env.Penalty == nil {
		t.Errorf("suspicion penalty hook lost after %d degraded reads", r.DegradedReads)
	}
}

// TestDegradedRejectCountsNoReplica: in reject mode the same windows
// surface as NoReplica rejections instead.
func TestDegradedRejectCountsNoReplica(t *testing.T) {
	r := runCfg(t, degradedConfig(t, replica.DegradedReject))
	if r.SiteCrashes == 0 {
		t.Fatal("no crashes to open a degraded window")
	}
	if r.NoReplicaRejects == 0 {
		t.Error("single-copy placement under crashes produced no NoReplica rejects")
	}
	if r.DegradedReads != 0 {
		t.Errorf("%d degraded reads in reject mode", r.DegradedReads)
	}
	if r.QueriesRejected < r.NoReplicaRejects {
		t.Errorf("total rejections %d below NoReplica rejections %d",
			r.QueriesRejected, r.NoReplicaRejects)
	}
}

// TestLoadDrivenReplicaAddAndDrop: the scan loop must promote fragments
// toward MaxCopies when the hot threshold sits below the observed access
// rates, and demote toward MinCopies when the cold threshold sits above
// them — each run audit-clean.
func TestLoadDrivenReplicaAddAndDrop(t *testing.T) {
	grow := partialConfig(t, policy.LERT, 2)
	grow.Seed = 13
	grow.Warmup = 2000 // the first promotion waves must clear before measuring
	grow.Audit = true
	grow.Replication = replica.DefaultManager()
	grow.Replication.FragmentSize = 1
	grow.Replication.ScanPeriod = 200
	grow.Replication.RateTau = 200
	grow.Replication.Cooldown = 400
	grow.Replication.HotRate = 1e-4 // far below any fragment's real rate
	grow.Replication.ColdRate = 1e-5
	g := runCfg(t, grow)
	if g.ReplicasAdded == 0 {
		t.Error("hot threshold below every access rate but no replicas added")
	}
	if g.ReplicasDropped != 0 {
		t.Errorf("%d drops with a cold threshold below every access rate", g.ReplicasDropped)
	}

	shrink := partialConfig(t, policy.LERT, 3)
	shrink.Seed = 13
	shrink.Warmup = 2000
	shrink.Audit = true
	shrink.Replication = replica.DefaultManager()
	shrink.Replication.FragmentSize = 1
	shrink.Replication.ScanPeriod = 200
	shrink.Replication.RateTau = 200
	shrink.Replication.Cooldown = 400
	shrink.Replication.HotRate = 1e6 // far above any fragment's real rate
	shrink.Replication.ColdRate = 1e5
	sh := runCfg(t, shrink)
	if sh.ReplicasDropped == 0 {
		t.Error("cold threshold above every access rate but no replicas dropped")
	}
	if sh.ReplicasAdded != 0 {
		t.Errorf("%d adds with a hot threshold above every access rate", sh.ReplicasAdded)
	}
}

// TestStaticFragAvailabilityReported: satellite 6 — even without the
// manager, a static placement under site failures must report fragment-
// weighted availability, and a failure-free placed run reports 1.
func TestStaticFragAvailabilityReported(t *testing.T) {
	cfg := partialConfig(t, policy.BNQ, 2)
	cfg.Seed = 7
	cfg.Audit = true
	cfg.Fault = fault.Default()
	cfg.Fault.MTTF = 1500
	cfg.Fault.MTTR = 300
	r := runCfg(t, cfg)
	if r.FragAvailability <= 0 || r.FragAvailability >= 1 {
		t.Errorf("fragment availability %v outside (0,1) despite crashes", r.FragAvailability)
	}
	if r.MinFragAvailability > r.FragAvailability {
		t.Errorf("min %v above mean %v", r.MinFragAvailability, r.FragAvailability)
	}
	// Site availability weights all sites; fragment availability only
	// suffers when every holder of some fragment is down at once, so the
	// 2-copy fragment view must not be worse than the site view.
	if r.FragAvailability < r.Availability {
		t.Errorf("2-copy fragment availability %v below site availability %v",
			r.FragAvailability, r.Availability)
	}

	clean := partialConfig(t, policy.BNQ, 2)
	clean.Seed = 7
	c := runCfg(t, clean)
	if c.FragAvailability != 1 || c.MinFragAvailability != 1 {
		t.Errorf("failure-free placed run reports availability (%v, %v), want (1, 1)",
			c.FragAvailability, c.MinFragAvailability)
	}
}
