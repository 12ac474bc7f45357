// Command dqsim runs one simulation of the distributed database model
// and prints its measurements.
//
// Usage:
//
//	dqsim -policy LERT -sites 6 -mpl 20 -think 350 -pio 0.5 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
	"dqalloc/internal/system"
	"dqalloc/internal/workload"
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
		policyName = fs.String("policy", "LERT", "allocation policy: LOCAL, RANDOM, BNQ, BNQRD, LERT, WORK")
		sites      = fs.Int("sites", 6, "number of DB sites")
		disks      = fs.Int("disks", 2, "disks per site")
		mpl        = fs.Int("mpl", 20, "terminals per site")
		think      = fs.Float64("think", 350, "mean terminal think time")
		pio        = fs.Float64("pio", 0.5, "probability a query is I/O-bound")
		msgLen     = fs.Float64("msg", 1, "message length (transfer time units)")
		infoPeriod = fs.Float64("info-period", 0, "load-info broadcast period (0 = perfect info)")
		oracle     = fs.Bool("oracle", false, "give the allocator exact per-query demands")
		tracePath  = fs.String("trace", "", "write a per-query CSV trace to this file")
		seed       = fs.Uint64("seed", 1, "random seed")
		reps       = fs.Int("reps", 1, "replications (seeds seed, seed+1, ...)")
		warmup     = fs.Float64("warmup", 5000, "warmup horizon")
		measure    = fs.Float64("measure", 50000, "measured horizon")
		mttf       = fs.Float64("mttf", 0, "mean time to site failure (0 = no crashes)")
		mttr       = fs.Float64("mttr", 0, "mean time to site repair (0 = fault default)")
		drop       = fs.Float64("drop", 0, "probability a ring message is dropped")
		netDelay   = fs.Float64("net-delay", 0, "mean extra ring transmission delay")
		faultTO    = fs.Float64("fault-timeout", 0, "watchdog detection timeout (0 = fault default)")
		faultTries = fs.Int("fault-retries", -1, "max query retries after loss (-1 = fault default)")
		slowMTTF   = fs.Float64("slow-mttf", 0, "mean time between per-site fail-slow onsets (0 = off)")
		slowMTTR   = fs.Float64("slow-mttr", 800, "mean fail-slow episode duration for -slow-mttf")
		slowFactor = fs.Float64("slow-factor", 10, "service-time multiplier during a fail-slow episode")
		slowDisk   = fs.Float64("slow-disk", 0, "disk multiplier during fail-slow (0 = follow -slow-factor)")
		brownMTTF  = fs.Float64("brownout-mttf", 0, "mean time between ring brownout onsets (0 = off)")
		brownMTTR  = fs.Float64("brownout-mttr", 500, "mean brownout episode duration for -brownout-mttf")
		brownFact  = fs.Float64("brownout-factor", 4, "ring transmission multiplier during a brownout")
		suspect    = fs.Bool("suspect", false, "enable the gray-failure suspicion detector")
		susRatio   = fs.Float64("suspect-ratio", 0, "suspect a site past this multiple of the median slowdown (0 = detector default)")
		susPenalty = fs.Float64("suspect-penalty", -1, "cost surcharge on suspect sites (-1 = detector default)")
		audit      = fs.Bool("audit", false, "run invariant auditors and fail on any violation")
		schedName  = fs.String("sched", "calendar", "event scheduler: calendar (default) or heap (reference; identical results)")

		estNoise  = fs.Float64("est-noise", 0, "estimation-error sigma on both demand estimates (0 = exact)")
		noiseDist = fs.String("est-noise-dist", "lognormal", "estimation-error distribution: lognormal or uniform")
		hyst      = fs.Float64("hyst", 0, "anti-herd hysteresis margin in [0,1)")
		powerK    = fs.Int("power-k", 0, "cost only K sampled remote sites per decision (0 = all)")
		randTies  = fs.Bool("random-ties", false, "break equal-cost remote ties uniformly at random")
		admitMax  = fs.Int("admit-max", 0, "per-site admission bound on committed queries (0 = off)")
		admitDef  = fs.Float64("admit-defer", 0, "mean resubmission delay for bounced queries (0 = shed immediately)")
		admitTry  = fs.Int("admit-max-defers", 3, "deferral budget per query before shedding")
		arrivalP  = fs.String("arrival", "", "open arrival process: poisson or mmpp (default: closed terminals)")
		rate      = fs.Float64("rate", 0.3, "offered arrival rate for -arrival (queries per time unit)")
		burst     = fs.Float64("burst", 4, "MMPP burst factor for -arrival mmpp")
		deadline  = fs.Float64("deadline", 0, "per-query response-time deadline (0 = off)")
		hedgeQ    = fs.Float64("hedge-quantile", 0, "hedge remote stragglers past this response quantile (0 = off)")
		jsonOut   = fs.Bool("json", false, "emit results as a JSON array instead of text")

		parMode     = fs.String("par-mode", "", "operator-tree plan placement: single, operator, or dop (default: monolithic queries)")
		parJoin     = fs.Float64("par-join", 0.3, "probability a query becomes a join tree for -par-mode")
		parFilter   = fs.Float64("par-filter", 0.25, "probability a join tree carries a filter for -par-mode")
		parMaxDOP   = fs.Int("par-maxdop", 0, "degree-of-parallelism cap for -par-mode dop (0 = site count)")
		parOverhead = fs.Float64("par-overhead", 2, "per-extra-site split overhead for -par-mode dop")
		parHedge    = fs.Bool("par-hedge", false, "hedge straggling remote operators (requires -par-mode and -hedge-quantile)")

		objects   = fs.Int("objects", 0, "number of DB objects in a round-robin partial placement (0 = every site holds everything)")
		copies    = fs.Int("copies", 2, "copies per object for -objects")
		rebuild   = fs.Bool("rebuild", false, "self-healing replica manager: crash-driven re-replication and degraded reads (requires -objects)")
		minCopies = fs.Int("min-copies", 0, "replication floor for -rebuild (0 = -copies)")
		maxCopies = fs.Int("max-copies", 0, "replication ceiling for -rebuild (0 = the floor)")
		fragSize  = fs.Float64("frag-size", 8, "fragment transfer size for rebuilds and degraded fetches")
		rebuildD  = fs.Float64("rebuild-delay", 25, "staging delay before a deficit's rebuild transfer")
		scanP     = fs.Float64("scan", 0, "load-driven add/drop scan period for -rebuild (0 = off)")
		hotRate   = fs.Float64("hot", 0.05, "EWMA access rate above which -scan promotes a fragment")
		coldRate  = fs.Float64("cold", 0.005, "EWMA access rate below which -scan demotes a fragment")
		degraded  = fs.String("degraded", "fetch", "no-up-holder behavior for -rebuild: fetch or reject")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := policy.ParseKind(*policyName)
	if err != nil {
		return err
	}
	cfg := system.Default()
	cfg.PolicyKind = kind
	cfg.NumSites = *sites
	cfg.NumDisks = *disks
	cfg.MPL = *mpl
	cfg.ThinkTime = *think
	cfg.ClassProbs = []float64{*pio, 1 - *pio}
	for i := range cfg.Classes {
		cfg.Classes[i].MsgLength = *msgLen
	}
	if *infoPeriod > 0 {
		cfg.InfoMode = system.InfoPeriodic
		cfg.InfoPeriod = *infoPeriod
	}
	if *oracle {
		cfg.EstimateMode = workload.EstimateActual
	}
	cfg.Seed = *seed
	cfg.Warmup = *warmup
	cfg.Measure = *measure
	cfg.Audit = *audit
	if cfg.Scheduler, err = sim.ParseImpl(*schedName); err != nil {
		return err
	}
	if *mttf > 0 || *drop > 0 || *netDelay > 0 || *slowMTTF > 0 || *brownMTTF > 0 {
		fc := fault.Default()
		fc.MTTF = math.Inf(1) // crashes off unless -mttf is given
		if *mttf > 0 {
			fc.MTTF = *mttf
		}
		if *mttr > 0 {
			fc.MTTR = *mttr
		}
		fc.DropProb = *drop
		fc.DelayMean = *netDelay
		if *faultTO > 0 {
			fc.DetectTimeout = *faultTO
		}
		if *faultTries >= 0 {
			fc.MaxRetries = *faultTries
		}
		if *slowMTTF > 0 {
			fc.SlowMTTF = *slowMTTF
			fc.SlowMTTR = *slowMTTR
			fc.SlowFactor = *slowFactor
			fc.SlowDiskFactor = *slowDisk
		}
		if *brownMTTF > 0 {
			fc.BrownoutMTTF = *brownMTTF
			fc.BrownoutMTTR = *brownMTTR
			fc.BrownoutFactor = *brownFact
		}
		cfg.Fault = fc
	}
	if *suspect {
		sc := loadinfo.DefaultSuspect()
		if *susRatio > 0 {
			sc.Ratio = *susRatio
		}
		if *susPenalty >= 0 {
			sc.Penalty = *susPenalty
		}
		cfg.Suspect = sc
	} else if *susRatio != 0 || *susPenalty >= 0 {
		return fmt.Errorf("-suspect-ratio/-suspect-penalty require -suspect")
	}
	if *estNoise < 0 {
		return fmt.Errorf("-est-noise %v is negative", *estNoise)
	}
	if *admitDef < 0 {
		return fmt.Errorf("-admit-defer %v is negative", *admitDef)
	}
	if *estNoise > 0 {
		dist, err := noise.ParseDist(*noiseDist)
		if err != nil {
			return err
		}
		cfg.Noise = noise.Config{Enabled: true, Dist: dist, ReadsSigma: *estNoise, CPUSigma: *estNoise}
	}
	cfg.Tuning = policy.Tuning{Hysteresis: *hyst, PowerK: *powerK, RandomTies: *randTies}
	switch strings.ToLower(*arrivalP) {
	case "":
	case "poisson":
		cfg.Arrival = arrival.DefaultPoisson(*rate)
	case "mmpp":
		cfg.Arrival = arrival.DefaultMMPP(*rate)
		cfg.Arrival.BurstFactor = *burst
	default:
		return fmt.Errorf("unknown arrival process %q (want poisson or mmpp)", *arrivalP)
	}
	if *deadline > 0 {
		cfg.Deadline = system.DeadlineConfig{Enabled: true, Deadline: *deadline}
	} else if *deadline < 0 {
		return fmt.Errorf("-deadline %v is negative", *deadline)
	}
	if *hedgeQ > 0 {
		hc := system.DefaultHedge()
		hc.Quantile = *hedgeQ
		cfg.Hedge = hc
	} else if *hedgeQ < 0 {
		return fmt.Errorf("-hedge-quantile %v is negative", *hedgeQ)
	}
	if *admitMax > 0 {
		cfg.Admission = system.AdmissionConfig{
			Enabled:    true,
			MaxQueue:   *admitMax,
			Defer:      *admitDef > 0,
			DeferDelay: *admitDef,
			MaxDefers:  *admitTry,
		}
	}
	if *parMode != "" {
		mode, err := policy.ParseParallelMode(strings.ToLower(*parMode))
		if err != nil {
			return err
		}
		pc := system.DefaultParallel()
		pc.Mode = mode
		pc.JoinProb = *parJoin
		pc.FilterProb = *parFilter
		pc.MaxDOP = *parMaxDOP
		pc.SplitOverhead = *parOverhead
		pc.Hedge = *parHedge
		cfg.Parallel = pc
	} else if *parHedge {
		return fmt.Errorf("-par-hedge requires -par-mode")
	}
	if *objects > 0 {
		p, err := replica.NewRoundRobin(*sites, *objects, *copies)
		if err != nil {
			return err
		}
		cfg.Placement = p
	}
	if *rebuild {
		if *objects <= 0 {
			return fmt.Errorf("-rebuild requires -objects")
		}
		rc := replica.DefaultManager()
		rc.MinCopies = *copies
		if *minCopies > 0 {
			rc.MinCopies = *minCopies
		}
		rc.MaxCopies = rc.MinCopies
		if *maxCopies > 0 {
			rc.MaxCopies = *maxCopies
		}
		rc.FragmentSize = *fragSize
		rc.RebuildDelay = *rebuildD
		rc.ScanPeriod = *scanP
		rc.HotRate = *hotRate
		rc.ColdRate = *coldRate
		switch strings.ToLower(*degraded) {
		case "fetch":
			rc.Degraded = replica.DegradedFetch
		case "reject":
			rc.Degraded = replica.DegradedReject
		default:
			return fmt.Errorf("unknown -degraded mode %q (want fetch or reject)", *degraded)
		}
		cfg.Replication = rc
	}
	// Validate eagerly so flag mistakes surface as one clean error even
	// when -reps is zero.
	if err := cfg.Validate(); err != nil {
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
	for i := 0; i < *reps; i++ {
		cfg.Seed = *seed + uint64(i)
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
		if *audit {
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
