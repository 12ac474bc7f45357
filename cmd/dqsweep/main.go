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
// Parameters: think, mpl, sites, pio, msg, info-period, est-noise, hyst.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dqalloc/internal/exper"
	"dqalloc/internal/noise"
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
		param    = fs.String("param", "think", "swept parameter: think, mpl, sites, pio, msg, info-period, est-noise, hyst")
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
		return err
	}
	if *step <= 0 {
		return fmt.Errorf("step must be positive")
	}

	kinds, err := parsePolicies(*policies)
	if err != nil {
		return err
	}
	apply, err := setter(*param)
	if err != nil {
		return err
	}
	runner := exper.Runner{Reps: *reps, BaseSeed: *seed, Warmup: *warmup, Measure: *measure}

	fmt.Fprintln(w, "param,value,policy,mean_wait,wait_ci_half,mean_response,fairness,cpu_util,disk_util,subnet_util,throughput,remote_frac")
	for v := *from; v <= *to+1e-9; v += *step {
		cfg := system.Default()
		if err := apply(&cfg, v); err != nil {
			return err
		}
		for _, kind := range kinds {
			// SIGINT/SIGTERM: completed rows are already flushed — stop
			// before the next replication and exit non-zero.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("interrupted: partial sweep emitted")
			}
			cfg.PolicyKind = kind
			agg, err := runner.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s,%g,%s,%.4f,%.4f,%.4f,%.5f,%.4f,%.4f,%.4f,%.5f,%.4f\n",
				*param, v, agg.Policy,
				agg.MeanWait.Mean, agg.MeanWait.HalfWide, agg.MeanResponse,
				agg.Fairness.Mean, agg.CPUUtil, agg.DiskUtil, agg.SubnetUtil,
				agg.Throughput, agg.RemoteFrac)
		}
	}
	return nil
}

// setter returns a function applying the swept value to a config.
func setter(param string) (func(*system.Config, float64) error, error) {
	switch param {
	case "think":
		return func(c *system.Config, v float64) error {
			c.ThinkTime = v
			return nil
		}, nil
	case "mpl":
		return func(c *system.Config, v float64) error {
			c.MPL = int(math.Round(v))
			return nil
		}, nil
	case "sites":
		return func(c *system.Config, v float64) error {
			c.NumSites = int(math.Round(v))
			return nil
		}, nil
	case "pio":
		return func(c *system.Config, v float64) error {
			if v < 0 || v > 1 {
				return fmt.Errorf("pio %v outside [0,1]", v)
			}
			c.ClassProbs = []float64{v, 1 - v}
			return nil
		}, nil
	case "msg":
		return func(c *system.Config, v float64) error {
			for i := range c.Classes {
				c.Classes[i].MsgLength = v
			}
			return nil
		}, nil
	case "info-period":
		return func(c *system.Config, v float64) error {
			if v <= 0 {
				c.InfoMode = system.InfoPerfect
				c.InfoPeriod = 0
				return nil
			}
			c.InfoMode = system.InfoPeriodic
			c.InfoPeriod = v
			return nil
		}, nil
	case "est-noise":
		return func(c *system.Config, v float64) error {
			if v < 0 {
				return fmt.Errorf("est-noise %v is negative", v)
			}
			if v == 0 {
				c.Noise = noise.Config{}
				return nil
			}
			c.Noise = noise.Config{Enabled: true, Dist: noise.Lognormal, ReadsSigma: v, CPUSigma: v}
			return nil
		}, nil
	case "hyst":
		return func(c *system.Config, v float64) error {
			if v < 0 || v >= 1 {
				return fmt.Errorf("hyst %v outside [0,1)", v)
			}
			c.Tuning = policy.Tuning{Hysteresis: v}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown parameter %q", param)
	}
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
