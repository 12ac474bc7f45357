// Command dqsim runs one simulation of the distributed database model
// and prints its measurements.
//
// Usage:
//
//	dqsim -policy LERT -sites 6 -mpl 20 -think 350 -pio 0.5 -seed 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dqalloc/internal/system"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dqsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dqsim", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "write a per-query CSV trace to this file")
		reps      = fs.Int("reps", 1, "replications (seeds seed, seed+1, ...)")
		jsonOut   = fs.Bool("json", false, "emit results as a JSON array instead of text")
	)
	build := system.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage is printed; asking for it is no failure
		}
		return err
	}
	// Build validates, so flag mistakes surface as one clean error even
	// when -reps is zero.
	cfg, err := build()
	if err != nil {
		return err
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer := system.NewTracer(f)
		defer tracer.Flush()
		cfg.Trace = tracer
	}

	var results []system.Results
	seed := cfg.Seed
	for i := 0; i < *reps; i++ {
		cfg.Seed = seed + uint64(i)
		sys, err := system.New(cfg)
		if err != nil {
			return err
		}
		r := sys.Run()
		if *jsonOut {
			results = append(results, r)
		} else {
			printResults(w, r)
		}
		if cfg.Audit {
			if err := sys.Audit(); err != nil {
				return fmt.Errorf("audit (seed %d): %w", cfg.Seed, err)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}

func printResults(w io.Writer, r system.Results) {
	fmt.Fprintf(w, "policy=%s seed=%d completed=%d\n", r.Policy, r.Seed, r.Completed)
	fmt.Fprintf(w, "  W (mean wait)      %10.3f\n", r.MeanWait)
	fmt.Fprintf(w, "  mean response      %10.3f\n", r.MeanResponse)
	fmt.Fprintf(w, "  fairness F         %+10.4f\n", r.Fairness)
	fmt.Fprintf(w, "  rho_cpu / rho_disk %10.3f / %.3f\n", r.CPUUtil, r.DiskUtil)
	fmt.Fprintf(w, "  subnet util        %10.3f\n", r.SubnetUtil)
	fmt.Fprintf(w, "  throughput         %10.4f q/unit\n", r.Throughput)
	fmt.Fprintf(w, "  remote fraction    %10.3f\n", r.RemoteFrac)
	fmt.Fprintf(w, "  resp p50/p95/p99   %10.3f / %.3f / %.3f\n",
		r.RespQuantiles.P50, r.RespQuantiles.P95, r.RespQuantiles.P99)
	if r.OpenArrivals > 0 {
		fmt.Fprintf(w, "  open arrivals      %10d\n", r.OpenArrivals)
	}
	if r.DeadlineMet > 0 || r.DeadlineMisses > 0 {
		fmt.Fprintf(w, "  deadlines: met=%d missed=%d aborted=%d\n",
			r.DeadlineMet, r.DeadlineMisses, r.QueriesAborted)
	}
	if r.Hedged > 0 {
		fmt.Fprintf(w, "  hedges: launched=%d wins=%d\n", r.Hedged, r.HedgeWins)
	}
	if r.SiteCrashes > 0 || r.QueriesLost > 0 || r.QueriesRejected > 0 || r.Availability < 1 {
		fmt.Fprintf(w, "  availability       %10.4f\n", r.Availability)
		fmt.Fprintf(w, "  avail. response    %10.3f\n", r.AvailResponse)
		fmt.Fprintf(w, "  crashes=%d lost=%d retried=%d rejected=%d\n",
			r.SiteCrashes, r.QueriesLost, r.QueriesRetried, r.QueriesRejected)
	}
	if r.SlowEpisodes > 0 || r.Brownouts > 0 {
		var degraded float64
		for _, d := range r.DegradedTime {
			degraded += d
		}
		fmt.Fprintf(w, "  fail-slow: episodes=%d degraded=%.1f brownouts=%d (net %.1f)\n",
			r.SlowEpisodes, degraded, r.Brownouts, r.BrownoutTime)
	}
	if r.SuspectTransfers > 0 || r.SuspectSites > 0 || r.HedgeWinsVsSlow > 0 {
		fmt.Fprintf(w, "  suspicion: transfers=%d suspects=%d hedge-wins-vs-slow=%d\n",
			r.SuspectTransfers, r.SuspectSites, r.HedgeWinsVsSlow)
	}
	if r.ParallelQueries > 0 {
		var wide uint64
		for k := 1; k < len(r.DOPHist); k++ {
			wide += r.DOPHist[k]
		}
		fmt.Fprintf(w, "  plans: parallel=%d wide=%d inter-bytes=%.1f\n",
			r.ParallelQueries, wide, r.IntermediateBytes)
	}
	if r.Operators > 0 {
		fmt.Fprintf(w, "  operators: spawned=%d done=%d aborted=%d preempted=%d\n",
			r.Operators, r.OperatorsCompleted, r.OperatorsAborted, r.OperatorsPreempted)
	}
	if r.QueriesShed > 0 || r.QueriesDeferred > 0 {
		fmt.Fprintf(w, "  admission: shed=%d deferred=%d\n", r.QueriesShed, r.QueriesDeferred)
	}
	if r.ReplicasRebuilt > 0 || r.ReplicasAdded > 0 || r.ReplicasDropped > 0 || r.RebuildsAborted > 0 {
		fmt.Fprintf(w, "  replicas: rebuilt=%d added=%d dropped=%d aborted=%d (lat %.3f)\n",
			r.ReplicasRebuilt, r.ReplicasAdded, r.ReplicasDropped, r.RebuildsAborted, r.MeanRebuildLatency)
	}
	if r.DegradedReads > 0 || r.NoReplicaRejects > 0 {
		fmt.Fprintf(w, "  degraded: reads=%d noreplica=%d\n", r.DegradedReads, r.NoReplicaRejects)
	}
	if r.MinFragAvailability > 0 && r.MinFragAvailability < 1 {
		fmt.Fprintf(w, "  frag avail         %10.4f (min %.4f)\n", r.FragAvailability, r.MinFragAvailability)
	}
	if r.EstReadsErr > 0 || r.EstCPUErr > 0 {
		fmt.Fprintf(w, "  est. error         %10.3f reads / %.3f cpu (herd %0.3f)\n",
			r.EstReadsErr, r.EstCPUErr, r.HerdFrac)
	}
	for _, c := range r.ByClass {
		fmt.Fprintf(w, "  class %-4s n=%-7d W=%8.3f resp=%8.3f exec=%7.3f normW=%6.3f\n",
			c.Name, c.Completed, c.MeanWait, c.MeanResp, c.MeanExecService, c.NormWait)
	}
}
