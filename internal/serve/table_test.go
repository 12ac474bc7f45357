package serve

import (
	"sync"
	"testing"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/workload"
)

func TestLiveTableFreshAndAged(t *testing.T) {
	clk := newFakeClock()
	lt := NewLiveTable(3, time.Second, 500)

	lt.Ingest(0, 2, 3, 10, 20, clk.Now())
	lt.BeginDecision(clk.Now())
	if !lt.Fresh(0) {
		t.Fatal("just-ingested entry reads stale")
	}
	if got := lt.NumQueries(0); got != 5 {
		t.Errorf("NumQueries(0) = %d, want 5", got)
	}
	if got := lt.NumIOQueries(0); got != 2 {
		t.Errorf("NumIOQueries(0) = %d, want 2", got)
	}
	if got := lt.CPUWork(0); got != 10 {
		t.Errorf("CPUWork(0) = %v, want 10", got)
	}

	// Site 1 never reported: stale from the start, assume-busy view.
	if lt.Fresh(1) {
		t.Error("never-reported entry reads fresh")
	}
	if got := lt.NumQueries(1); got != 500 {
		t.Errorf("stale NumQueries = %d, want assume-busy 500", got)
	}
	if got := lt.IOWork(1); got != 500 {
		t.Errorf("stale IOWork = %v, want 500", got)
	}

	// Past the TTL the fresh entry ages into the same degraded view.
	clk.Advance(1001 * time.Millisecond)
	lt.BeginDecision(clk.Now())
	if lt.Fresh(0) {
		t.Error("entry older than TTL reads fresh")
	}
	if got := lt.NumQueries(0); got != 500 {
		t.Errorf("aged NumQueries = %d, want 500", got)
	}
}

func TestLiveTableOptimisticDeltas(t *testing.T) {
	clk := newFakeClock()
	lt := NewLiveTable(2, time.Second, 99)
	lt.Ingest(0, 1, 1, 5, 5, clk.Now())
	lt.BeginDecision(clk.Now())

	lt.NoteAssign(0, workload.IOBound, 2, 4)
	lt.NoteAssign(0, workload.CPUBound, 8, 1)
	if got := lt.NumQueries(0); got != 4 {
		t.Errorf("NumQueries with deltas = %d, want 4", got)
	}
	if got := lt.NumIOQueries(0); got != 2 {
		t.Errorf("NumIOQueries with delta = %d, want 2", got)
	}
	if got := lt.CPUWork(0); got != 15 {
		t.Errorf("CPUWork with deltas = %v, want 15", got)
	}
	if got := lt.Committed(0); got != 4 {
		t.Errorf("Committed = %d, want 4", got)
	}

	// The next report is authoritative: deltas cleared, not stacked.
	lt.Ingest(0, 2, 2, 6, 6, clk.Now())
	if got := lt.NumQueries(0); got != 4 {
		t.Errorf("NumQueries after re-report = %d, want 4 (reported only)", got)
	}
	if got := lt.CPUWork(0); got != 6 {
		t.Errorf("CPUWork after re-report = %v, want 6", got)
	}

	// Committed ignores staleness so the admission cap still binds.
	clk.Advance(2 * time.Second)
	lt.BeginDecision(clk.Now())
	if got := lt.Committed(0); got != 4 {
		t.Errorf("stale Committed = %d, want 4", got)
	}
	if got := lt.NumQueries(0); got != 99 {
		t.Errorf("stale NumQueries = %d, want 99", got)
	}
}

// allSites lists sites 0 to n-1.
func allSites(n int) []int {
	sites := make([]int, n)
	for s := range sites {
		sites[s] = s
	}
	return sites
}

// checkReadCounts fails unless lt's one-lock snapshot of every site
// equals its per-site reads under the current decision epoch.
func checkReadCounts(t *testing.T, lt *LiveTable, n int) (io, cpu, total []int) {
	t.Helper()
	io, cpu, total = make([]int, n), make([]int, n), make([]int, n)
	lt.ReadCounts(allSites(n), io, cpu, total)
	for s := 0; s < n; s++ {
		if io[s] != lt.NumIOQueries(s) || cpu[s] != lt.NumCPUQueries(s) || total[s] != lt.NumQueries(s) {
			t.Errorf("site %d: ReadCounts %d/%d/%d, per-site reads %d/%d/%d", s,
				io[s], cpu[s], total[s], lt.NumIOQueries(s), lt.NumCPUQueries(s), lt.NumQueries(s))
		}
	}
	return io, cpu, total
}

// TestLiveTableReadCountsMatchesPerSiteReads: the snapshot a decision
// costs from equals the per-site view, for fresh sites, sites with
// optimistic deltas, never-reported sites and aged ones — a stale
// site's total reads AssumeBusy, not twice it.
func TestLiveTableReadCountsMatchesPerSiteReads(t *testing.T) {
	const n, busy = 6, 77
	clk := newFakeClock()
	lt := NewLiveTable(n, time.Second, busy)
	lt.Ingest(0, 2, 3, 10, 20, clk.Now())
	lt.Ingest(1, 1, 0, 4, 4, clk.Now())
	lt.Ingest(3, 4, 4, 8, 8, clk.Now())
	lt.Ingest(5, 0, 1, 1, 1, clk.Now())
	lt.NoteAssign(1, workload.CPUBound, 2, 2)
	lt.NoteAssign(5, workload.IOBound, 2, 2)
	lt.BeginDecision(clk.Now())
	checkReadCounts(t, lt, n) // site 2 and 4 never reported

	clk.Advance(600 * time.Millisecond)
	lt.Ingest(4, 3, 1, 2, 2, clk.Now())
	lt.Ingest(5, 2, 2, 2, 2, clk.Now())
	lt.NoteAssign(4, workload.IOBound, 1, 1)
	clk.Advance(600 * time.Millisecond)
	lt.BeginDecision(clk.Now()) // sites 0, 1 and 3 have aged out
	_, _, total := checkReadCounts(t, lt, n)
	for _, s := range []int{0, 1, 2, 3} {
		if total[s] != busy {
			t.Errorf("stale site %d total = %d, want AssumeBusy %d", s, total[s], busy)
		}
	}
	if total[4] != 5 || total[5] != 4 {
		t.Errorf("fresh totals = %d, %d, want 5, 4", total[4], total[5])
	}
}

// TestLiveTableConcurrentDecidesAndReports drives a core's table from
// several goroutines at once — reports from handler-like goroutines,
// the decision loop, and extra policies costing from the same table —
// for the race detector (go test -race -count=10 ./internal/serve/).
// Every snapshot must be consistent under its one lock: a fresh site's
// total is the sum of its two counts.
func TestLiveTableConcurrentDecidesAndReports(t *testing.T) {
	clk := newFakeClock()
	cfg := coreConfig(clk)
	cfg.NumSites = 8
	cfg.Policy = policy.LERT
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt := core.Table()
	const rounds = 300
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // sites 6 and 7 never report
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := core.Report(2*r+i%2, i%7, i%5, float64(i%3), float64(i%4), 0, 0, clk.Now()); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			core.Decide(newQuery(cfg, i%len(cfg.Classes), i%cfg.NumSites), clk.Now())
		}
	}()
	for k, kind := range []policy.Kind{policy.BNQ, policy.Work} {
		wg.Add(1)
		go func(k int, kind policy.Kind) {
			defer wg.Done()
			pol, err := policy.New(kind, cfg.NumSites, nil)
			if err != nil {
				t.Error(err)
				return
			}
			env := &policy.Env{View: lt, NumSites: cfg.NumSites, NumDisks: cfg.NumDisks, DiskTime: cfg.DiskTime}
			n := cfg.NumSites
			sites := allSites(n)
			io, cpu, total := make([]int, n), make([]int, n), make([]int, n)
			for i := 0; i < rounds; i++ {
				if s := pol.Select(newQuery(cfg, 0, (i+k)%n), (i+k)%n, env); s < 0 || s >= n {
					t.Errorf("%v chose site %d", kind, s)
					return
				}
				lt.ReadCounts(sites, io, cpu, total)
				for s := 0; s < n; s++ {
					stale := io[s] == cfg.AssumeBusy && cpu[s] == cfg.AssumeBusy && total[s] == cfg.AssumeBusy
					if !stale && total[s] != io[s]+cpu[s] {
						t.Errorf("site %d snapshot %d/%d/%d is torn", s, io[s], cpu[s], total[s])
						return
					}
				}
			}
		}(k, kind)
	}
	wg.Wait()
}
