// Package exper defines one reproduction harness per table of the
// paper's evaluation: the analytical WIF/FIF grids of Tables 5–6 and the
// simulation studies of Tables 8–12 (plus the msg_length variant reported
// in the prose of Section 5.2). Each harness returns typed rows carrying
// the same quantities the paper prints.
package exper

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dqalloc/internal/policy"
	"dqalloc/internal/sim"
	"dqalloc/internal/stats"
	"dqalloc/internal/system"
)

// ErrParallelCustomPolicy is returned when Parallel is combined with a
// configuration carrying a CustomPolicy. A custom policy is a single
// shared value — typically stateful (probe counters, thresholds, RNG
// streams) — so replications sharing it cannot run concurrently, and
// silently serializing would misreport how the numbers were produced.
// Callers that want serial execution must clear Parallel explicitly.
var ErrParallelCustomPolicy = errors.New("exper: Parallel replication is not available for CustomPolicy configurations (clear Parallel to run serially)")

// Runner fixes the replication discipline for the simulation studies:
// every configuration is run Reps times with seeds BaseSeed, BaseSeed+1,
// …, and results are averaged. Policies being compared share the same
// seed sequence (common random numbers), which sharpens the improvement
// estimates the paper's tables report.
type Runner struct {
	// Reps is the number of independent replications per configuration.
	Reps int
	// BaseSeed is the first replication's seed.
	BaseSeed uint64
	// Warmup and Measure override the configuration's horizons when
	// positive.
	Warmup, Measure float64
	// Parallel runs replications on a pool of worker goroutines.
	// Results are identical to the serial order (each replication owns
	// its seed and its entire model); only wall-clock time changes.
	// Each worker runs many replications back to back, reusing its
	// goroutine and keeping at most Workers models live at once, so
	// peak memory stays bounded however large Reps grows. Not available
	// for configurations carrying a CustomPolicy (a single shared,
	// possibly stateful value): Run returns ErrParallelCustomPolicy
	// rather than silently serializing.
	Parallel bool
	// Workers caps the worker pool used by Parallel mode. Zero or
	// negative means GOMAXPROCS. Ignored when Parallel is false.
	Workers int
	// Scheduler selects the kernel's future-event list for every
	// replication (the runner owns this choice, overwriting whatever the
	// configuration carries). The zero value is sim.Calendar, the
	// default; sim.Heap runs the reference implementation. Results are
	// identical either way — the scheduler trades only speed — so
	// benchmark harnesses can compare implementations on byte-identical
	// workloads.
	Scheduler sim.Impl
}

// Quick returns a runner sized for tests and demos (a few seconds per
// table).
func Quick() Runner {
	return Runner{Reps: 2, BaseSeed: 1, Warmup: 2000, Measure: 20000}
}

// Full returns the runner used for the numbers recorded in
// EXPERIMENTS.md.
func Full() Runner {
	return Runner{Reps: 5, BaseSeed: 1, Warmup: 5000, Measure: 60000}
}

// Validate reports the first runner error, if any.
func (r Runner) Validate() error {
	if r.Reps < 1 {
		return fmt.Errorf("exper: Reps %d < 1", r.Reps)
	}
	if r.Warmup < 0 || r.Measure < 0 {
		return fmt.Errorf("exper: negative horizon")
	}
	if math.IsNaN(r.Warmup) || math.IsNaN(r.Measure) || math.IsInf(r.Warmup+r.Measure, 0) {
		return fmt.Errorf("exper: horizon Warmup %v + Measure %v is not finite", r.Warmup, r.Measure)
	}
	return nil
}

// Aggregate summarizes the replications of one configuration.
type Aggregate struct {
	// Policy is the allocation policy's name.
	Policy string
	// MeanWait is W̄ with a 95% replication confidence interval.
	MeanWait stats.CI
	// Fairness is F with a 95% replication confidence interval.
	Fairness stats.CI
	// MeanResponse, CPUUtil, DiskUtil, SubnetUtil, Throughput and
	// RemoteFrac are replication means.
	MeanResponse float64
	CPUUtil      float64
	DiskUtil     float64
	SubnetUtil   float64
	Throughput   float64
	RemoteFrac   float64
	// Completed is the total completions across replications.
	Completed uint64
	// Events is the total count of kernel events fired across
	// replications — the numerator of aggregate events/sec when the
	// replication batch is timed (BenchmarkRunnerParallel).
	Events uint64
}

// Run executes cfg across the runner's replications and aggregates.
func (r Runner) Run(cfg system.Config) (Aggregate, error) {
	if err := r.Validate(); err != nil {
		return Aggregate{}, err
	}
	results, err := r.replicate(r.applyHorizons(cfg))
	if err != nil {
		return Aggregate{}, err
	}
	return aggregate(cfg.PolicyName(), results), nil
}

// applyHorizons overlays the runner's warmup/measure overrides, when
// set, and its scheduler selection on the configuration.
func (r Runner) applyHorizons(cfg system.Config) system.Config {
	if r.Warmup > 0 {
		cfg.Warmup = r.Warmup
	}
	if r.Measure > 0 {
		cfg.Measure = r.Measure
	}
	cfg.Scheduler = r.Scheduler
	return cfg
}

// aggregate summarizes a batch of replication results. The aggregate of
// a seed set is independent of how the replications were batched, which
// lets RunToPrecision grow the set incrementally.
func aggregate(policyName string, results []system.Results) Aggregate {
	waits := make([]float64, 0, len(results))
	fairs := make([]float64, 0, len(results))
	agg := Aggregate{Policy: policyName}
	for _, res := range results {
		waits = append(waits, res.MeanWait)
		fairs = append(fairs, res.Fairness)
		agg.MeanResponse += res.MeanResponse
		agg.CPUUtil += res.CPUUtil
		agg.DiskUtil += res.DiskUtil
		agg.SubnetUtil += res.SubnetUtil
		agg.Throughput += res.Throughput
		agg.RemoteFrac += res.RemoteFrac
		agg.Completed += res.Completed
		agg.Events += res.EventsFired
	}
	n := float64(len(results))
	agg.MeanWait = stats.MeanCI(waits)
	agg.Fairness = stats.MeanCI(fairs)
	agg.MeanResponse /= n
	agg.CPUUtil /= n
	agg.DiskUtil /= n
	agg.SubnetUtil /= n
	agg.Throughput /= n
	agg.RemoteFrac /= n
	return agg
}

// newSystem builds one replication's model; tests stub it to count
// constructions.
var newSystem = system.New

// replicate runs the configuration once per replication seed, serially
// or — when Parallel is set — on a pool of worker goroutines. Each
// replication builds its own System, so there is no shared mutable
// state; results land at their replication index, making the output
// independent of worker interleaving.
func (r Runner) replicate(cfg system.Config) ([]system.Results, error) {
	if r.Parallel && cfg.CustomPolicy != nil {
		return nil, ErrParallelCustomPolicy
	}
	results := make([]system.Results, r.Reps)
	if !r.Parallel {
		for i := range results {
			cfg.Seed = r.BaseSeed + uint64(i)
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			results[i] = sys.Run()
		}
		return results, nil
	}

	// Worker pool: each worker claims replication indices from a shared
	// counter and runs them back to back on its own goroutine, so at
	// most `workers` models are live at once and a worker's stack (and
	// the allocator arenas it warms) is reused across replications
	// rather than paid per rep.
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > r.Reps {
		workers = r.Reps
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= r.Reps {
					return
				}
				c := cfg
				c.Seed = r.BaseSeed + uint64(i)
				sys, err := newSystem(c)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				results[i] = sys.Run()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// RunToPrecision keeps adding replications (beyond Reps, up to maxReps)
// until the 95% confidence interval of W̄ is narrower than relWidth of
// its mean. It returns the final aggregate and the number of
// replications used. Use this when a table cell must be statistically
// solid rather than fixed-budget.
//
// Earlier replications are reused across doublings: each round simulates
// only the seeds not yet run (BaseSeed+len(done) onward), so reaching n
// replications costs n system builds, not 2n−2 extra. The seed set at
// any count is identical to a fixed-budget run of that count, preserving
// common random numbers across policies.
func (r Runner) RunToPrecision(cfg system.Config, relWidth float64, maxReps int) (Aggregate, int, error) {
	if err := r.Validate(); err != nil {
		return Aggregate{}, 0, err
	}
	if relWidth <= 0 {
		return Aggregate{}, 0, fmt.Errorf("exper: relWidth %v must be positive", relWidth)
	}
	if maxReps < r.Reps {
		maxReps = r.Reps
	}
	reps := r.Reps
	if reps < 2 {
		reps = 2 // a CI needs at least two samples
	}
	runCfg := r.applyHorizons(cfg)
	results := make([]system.Results, 0, reps)
	for {
		rr := r
		rr.BaseSeed = r.BaseSeed + uint64(len(results))
		rr.Reps = reps - len(results)
		batch, err := rr.replicate(runCfg)
		if err != nil {
			return Aggregate{}, 0, err
		}
		results = append(results, batch...)
		agg := aggregate(cfg.PolicyName(), results)
		if agg.MeanWait.Mean == 0 ||
			agg.MeanWait.HalfWide/agg.MeanWait.Mean <= relWidth ||
			reps >= maxReps {
			return agg, reps, nil
		}
		reps *= 2
		if reps > maxReps {
			reps = maxReps
		}
	}
}

// RunPolicies runs the same configuration under several policies with
// common random numbers and returns the aggregates in order.
func (r Runner) RunPolicies(cfg system.Config, kinds []policy.Kind) ([]Aggregate, error) {
	out := make([]Aggregate, 0, len(kinds))
	for _, k := range kinds {
		c := cfg
		c.PolicyKind = k
		c.CustomPolicy = nil
		agg, err := r.Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, agg)
	}
	return out, nil
}

// Improvement returns the paper's percentage improvement
// ΔW̄_{X,REF}/W̄_REF × 100 of x over ref (positive = x waits less).
func Improvement(ref, x float64) float64 {
	if ref == 0 {
		return 0
	}
	return (ref - x) / ref * 100
}
