package system

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"dqalloc/internal/arrival"
	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/replica"
	"dqalloc/internal/sim"
	"dqalloc/internal/workload"
)

// RegisterFlags defines dqsim's configuration flags on fs. After
// fs.Parse, the returned function builds the Config they describe,
// starting from Default(), and validates it. It rejects a NaN or
// infinite value of any float flag set on fs, and a negative value of
// any flag whose zero or sentinel default switches a subsystem off.
func RegisterFlags(fs *flag.FlagSet) func() (Config, error) {
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
		seed       = fs.Uint64("seed", 1, "random seed")
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
	return func() (Config, error) {
		// The subsystem switches below test "> 0", which NaN fails
		// silently, so every float flag must be finite.
		var nonFinite error
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) {
			set[f.Name] = true
			if g, ok := f.Value.(flag.Getter); ok && nonFinite == nil {
				if x, ok := g.Get().(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
					nonFinite = fmt.Errorf("-%s %v is not a finite number", f.Name, x)
				}
			}
		})
		if nonFinite != nil {
			return Config{}, nonFinite
		}
		// A flag read only under its subsystem's switch would be ignored
		// without it, whatever its value.
		faultOn := *mttf > 0 || *drop > 0 || *netDelay > 0 || *slowMTTF > 0 || *brownMTTF > 0
		for _, d := range []struct {
			flags []string
			on    bool
			needs string
		}{
			{[]string{"mttr", "fault-timeout", "fault-retries"}, faultOn, "-mttf, -drop, -net-delay, -slow-mttf or -brownout-mttf"},
			{[]string{"slow-mttr", "slow-factor", "slow-disk"}, *slowMTTF > 0, "-slow-mttf"},
			{[]string{"brownout-mttr", "brownout-factor"}, *brownMTTF > 0, "-brownout-mttf"},
			{[]string{"suspect-ratio", "suspect-penalty"}, *suspect, "-suspect"},
			{[]string{"est-noise-dist"}, *estNoise > 0, "-est-noise"},
			{[]string{"admit-defer", "admit-max-defers"}, *admitMax > 0, "-admit-max"},
			{[]string{"rate"}, *arrivalP != "", "-arrival"},
			{[]string{"burst"}, strings.EqualFold(*arrivalP, "mmpp"), "-arrival mmpp"},
			{[]string{"par-join", "par-filter", "par-maxdop", "par-overhead", "par-hedge"}, *parMode != "", "-par-mode"},
			{[]string{"copies", "rebuild"}, *objects > 0, "-objects"},
			{[]string{"min-copies", "max-copies", "frag-size", "rebuild-delay", "scan", "hot", "cold", "degraded"}, *rebuild, "-rebuild"},
		} {
			for _, name := range d.flags {
				if set[name] && !d.on {
					return Config{}, fmt.Errorf("-%s requires %s", name, d.needs)
				}
			}
		}
		// The same switches would read a negative value as "off" too.
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"info-period", *infoPeriod}, {"mttf", *mttf}, {"mttr", *mttr}, {"drop", *drop},
			{"net-delay", *netDelay}, {"fault-timeout", *faultTO}, {"slow-mttf", *slowMTTF},
			{"brownout-mttf", *brownMTTF}, {"suspect-ratio", *susRatio}, {"est-noise", *estNoise},
			{"admit-max", float64(*admitMax)}, {"admit-defer", *admitDef}, {"deadline", *deadline},
			{"hedge-quantile", *hedgeQ}, {"objects", float64(*objects)},
		} {
			if f.v < 0 {
				return Config{}, fmt.Errorf("-%s %v is negative", f.name, f.v)
			}
		}
		if *faultTries < -1 {
			return Config{}, fmt.Errorf("-fault-retries %d is below -1", *faultTries)
		}
		if *susPenalty < 0 && *susPenalty != -1 {
			return Config{}, fmt.Errorf("-suspect-penalty %v is negative (-1 means the detector default)", *susPenalty)
		}
		kind, err := policy.ParseKind(*policyName)
		if err != nil {
			return Config{}, err
		}
		cfg := Default()
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
			cfg.InfoMode = InfoPeriodic
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
			return Config{}, err
		}
		if faultOn {
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
		}
		if *estNoise > 0 {
			dist, err := noise.ParseDist(*noiseDist)
			if err != nil {
				return Config{}, err
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
			return Config{}, fmt.Errorf("unknown arrival process %q (want poisson or mmpp)", *arrivalP)
		}
		if *deadline > 0 {
			cfg.Deadline = DeadlineConfig{Enabled: true, Deadline: *deadline}
		}
		if *hedgeQ > 0 {
			hc := DefaultHedge()
			hc.Quantile = *hedgeQ
			cfg.Hedge = hc
		}
		if *admitMax > 0 {
			cfg.Admission = AdmissionConfig{
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
				return Config{}, err
			}
			pc := DefaultParallel()
			pc.Mode = mode
			pc.JoinProb = *parJoin
			pc.FilterProb = *parFilter
			pc.MaxDOP = *parMaxDOP
			pc.SplitOverhead = *parOverhead
			pc.Hedge = *parHedge
			cfg.Parallel = pc
		}
		if *objects > 0 {
			p, err := replica.NewRoundRobin(*sites, *objects, *copies)
			if err != nil {
				return Config{}, err
			}
			cfg.Placement = p
		}
		if *rebuild {
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
				return Config{}, fmt.Errorf("unknown -degraded mode %q (want fetch or reject)", *degraded)
			}
			cfg.Replication = rc
		}
		return cfg, cfg.Validate()
	}
}

// ParseArgs builds the Config that dqsim's configuration flags in args
// describe; ParseArgs(nil) is Default(). It rejects positional arguments.
func ParseArgs(args []string) (Config, error) {
	fs := flag.NewFlagSet("dqsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if fs.NArg() > 0 {
		return Config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return build()
}
