package system

import (
	"testing"

	"dqalloc/internal/race"
)

// TestThinkExecuteCycleAllocBudget pins the end-to-end allocation cost
// of the model: one full terminal cycle (think → submit → allocate →
// execute → reply) allocates nothing — its Query comes from the
// untracked free list — so what remains is one-time construction. The
// budget is per completed query, amortizing that construction over the
// run; it is set at roughly 2× the measured value (~0.4/query on a short
// run), far below the ~50/query a per-event closure regression costs.
func TestThinkExecuteCycleAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	cfg := Default()
	cfg.Seed = 1
	cfg.Warmup = 300
	cfg.Measure = 2000
	var res Results
	avg := testing.AllocsPerRun(1, func() {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res = sys.Run()
	})
	if res.Completed == 0 {
		t.Fatal("run completed nothing")
	}
	perQuery := avg / float64(res.Completed)
	t.Logf("%.0f allocs over %d completions = %.2f allocs/query", avg, res.Completed, perQuery)
	if perQuery > 1 {
		t.Errorf("think–execute cycle costs %.2f allocs/query, budget 1", perQuery)
	}
}

// TestUntrackedSteadyStateAllocs pins the untracked query free list:
// once the list covers the peak in-flight population, a run without
// lifecycle subsystems allocates nothing per query, so doubling its
// measured horizon adds (almost) no allocations, and a whole lan64-shaped
// replication — construction included — stays within a fixed budget.
func TestUntrackedSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	run := func(cfg Config) (float64, uint64) {
		var res Results
		avg := testing.AllocsPerRun(1, func() {
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res = sys.Run()
		})
		if res.Completed == 0 {
			t.Fatal("run completed nothing")
		}
		return avg, res.Completed
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		budget float64 // allocations of one replication at the base horizon, 0 for none
	}{
		{"paper", Default(), 0},
		{"lan64", benchLan64(), 3000},
	} {
		t.Run(c.name, func(t *testing.T) {
			base, n := run(c.cfg)
			long := c.cfg
			long.Measure *= 2
			longAllocs, longN := run(long)
			perExtra := (longAllocs - base) / float64(longN-n)
			t.Logf("%.0f allocs over %d completions, %.0f over %d at twice the horizon: %.4f per extra query",
				base, n, longAllocs, longN, perExtra)
			if perExtra > 0.01 {
				t.Errorf("%.4f allocs per extra completed query, budget 0.01", perExtra)
			}
			if c.budget > 0 && base > c.budget {
				t.Errorf("replication allocates %.0f objects, budget %.0f", base, c.budget)
			}
		})
	}
}

// TestNewAllocBudget pins the cost of construction alone. Every site,
// its CPU, its disks and its random streams live by value on backing
// arrays that New allocates once per system, so what grows with the
// site count is only the bound event actions: the site's two
// completion handlers, the CPU's departure action, one finish action
// per disk and the terminals' think action — six objects per site at
// the default two disks.
func TestNewAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	paper, lan64 := Default(), benchLan64()
	p, l := allocs(paper), allocs(lan64)
	perSite := (l - p) / float64(lan64.NumSites-paper.NumSites)
	t.Logf("New allocates %.0f objects on paper, %.0f on lan64: %.2f per site", p, l, perSite)
	if p > 100 {
		t.Errorf("paper: New allocates %.0f objects, budget 100", p)
	}
	if l > 500 {
		t.Errorf("lan64: New allocates %.0f objects, budget 500", l)
	}
	if perSite > 7 {
		t.Errorf("New allocates %.2f objects per site, budget 7", perSite)
	}
}

// BenchmarkNew times construction alone on the paper's configuration
// and on the 64-site one.
func BenchmarkNew(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"paper", Default()},
		{"lan64", benchLan64()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
