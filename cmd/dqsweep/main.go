// Command dqsweep sweeps one model parameter across a range for a set of
// policies and emits CSV, one row per (parameter value, policy) pair —
// the raw material for every curve in the paper and for new ones.
//
// Usage:
//
//	dqsweep -param think -from 150 -to 450 -step 50 -policies LOCAL,BNQ,LERT
//	dqsweep -param pio -from 0.3 -to 0.8 -step 0.1
//	dqsweep -param msg -from 0.5 -to 3 -step 0.5 -policies BNQ,BNQRD,LERT
//
// -param takes any dqsim configuration flag name (think, mpl, sites, pio,
// msg, info-period, est-noise, hyst, mttf, deadline, ...): point i is
// from + i·step, formatted at 12 significant digits, and its Config is
// system.ParseArgs of "-param value" over the Table 7 defaults. Integer
// flags such as mpl and sites take integer points only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dqalloc/internal/exper"
	"dqalloc/internal/policy"
	"dqalloc/internal/system"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dqsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dqsweep", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		param    = fs.String("param", "think", "swept parameter: any dqsim configuration flag, e.g. think, mpl, sites, pio, msg, info-period, est-noise, hyst")
		from     = fs.Float64("from", 150, "first value")
		to       = fs.Float64("to", 450, "last value (inclusive)")
		step     = fs.Float64("step", 50, "increment")
		policies = fs.String("policies", "LOCAL,BNQ,BNQRD,LERT", "comma-separated policy list")
		reps     = fs.Int("reps", 3, "replications per point")
		warmup   = fs.Float64("warmup", 3000, "warmup horizon")
		measure  = fs.Float64("measure", 30000, "measured horizon")
		seed     = fs.Uint64("seed", 1, "base seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage is printed; asking for it is no failure
		}
		return err
	}
	if !(*step > 0) {
		return fmt.Errorf("step must be positive")
	}

	kinds, err := parsePolicies(*policies)
	if err != nil {
		return err
	}
	// Build every point's Config before the first run, so a bad -param
	// or value fails before any output.
	points, err := sweepPoints(*param, *from, *to, *step)
	if err != nil {
		return err
	}
	runner := exper.Runner{Reps: *reps, BaseSeed: *seed, Warmup: *warmup, Measure: *measure}

	fmt.Fprintln(w, "param,value,policy,mean_wait,wait_ci_half,mean_response,fairness,cpu_util,disk_util,subnet_util,throughput,remote_frac")
	for _, p := range points {
		for _, kind := range kinds {
			// SIGINT/SIGTERM: completed rows are already flushed — stop
			// before the next replication and exit non-zero.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted: partial sweep emitted")
			}
			p.cfg.PolicyKind = kind
			agg, err := runner.Run(p.cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%s,%s,%.4f,%.4f,%.4f,%.5f,%.4f,%.4f,%.4f,%.5f,%.4f\n",
				*param, p.value, agg.Policy,
				agg.MeanWait.Mean, agg.MeanWait.HalfWide, agg.MeanResponse,
				agg.Fairness.Mean, agg.CPUUtil, agg.DiskUtil, agg.SubnetUtil,
				agg.Throughput, agg.RemoteFrac)
		}
	}
	return nil
}

// point is one grid value of the swept parameter: the string it was
// parsed from and the Config it yields.
type point struct {
	value string
	cfg   system.Config
}

// sweepPoints returns the grid from, from+step, ... up to to (inclusive),
// point i formatted once at 12 significant digits and applied as the
// dqsim flag -param over the Table 7 defaults. step must be positive.
func sweepPoints(param string, from, to, step float64) ([]point, error) {
	var points []point
	for i := 0.0; from+i*step <= to+1e-9; i++ {
		value := strconv.FormatFloat(from+i*step, 'g', 12, 64)
		cfg, err := system.ParseArgs([]string{"-" + param, value})
		if err != nil {
			return nil, fmt.Errorf("-param %s at %s: %w", param, value, err)
		}
		points = append(points, point{value, cfg})
	}
	return points, nil
}

func parsePolicies(s string) ([]policy.Kind, error) {
	var kinds []policy.Kind
	for _, name := range strings.Split(s, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		kind, err := policy.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return kinds, nil
}
