package system

import "dqalloc/internal/stats"

// ClassResults holds the per-class measurements of one run.
type ClassResults struct {
	// Name is the class label (e.g. "io", "cpu").
	Name string
	// Completed is the number of measured completions.
	Completed uint64
	// MeanWait is the class's mean waiting (queueing) time per query:
	// response time minus actual service received.
	MeanWait float64
	// MeanResp is the class's mean response time.
	MeanResp float64
	// MeanService is the class's mean total service demand per query
	// (disk + CPU + message transmissions).
	MeanService float64
	// MeanExecService is the class's mean execution demand per query
	// (disk + CPU only) — the paper's "execution time".
	MeanExecService float64
	// NormWait is the normalized mean waiting time Ŵ = MeanWait /
	// MeanExecService (Section 3's fairness currency).
	NormWait float64
	// RespQuantiles are the class's measured response-time tail quantiles
	// from the log-bucketed histogram (≤2% relative quantile error).
	RespQuantiles stats.Quantiles
}

// Results holds the measurements of one simulation run over the measured
// horizon (after warmup).
type Results struct {
	// Policy is the allocation policy's name.
	Policy string
	// Seed is the run's random seed.
	Seed uint64
	// MeasuredTime is the length of the measured horizon.
	MeasuredTime float64

	// Completed counts queries finishing inside the measured horizon.
	Completed uint64
	// MeanWait is the paper's W̄: mean waiting time over all queries —
	// response time minus pure execution service (message transmission
	// counts as waiting).
	MeanWait float64
	// WaitCI is a single-run 95% confidence interval for MeanWait,
	// produced by the method of batch means (the observations within one
	// run are autocorrelated, so a naive interval would be too narrow).
	WaitCI stats.CI
	// MeanResponse is the mean response time over all queries.
	MeanResponse float64
	// ByClass holds the per-class breakdown, indexed like Config.Classes.
	ByClass []ClassResults
	// Fairness is the paper's F: the difference in normalized waiting
	// times between class 0 and class 1 (Ŵ_io − Ŵ_cpu with the default
	// class table). Zero when fewer than two classes are configured.
	Fairness float64

	// CPUUtil is the paper's ρ_c: mean CPU utilization across sites.
	CPUUtil float64
	// DiskUtil is the paper's ρ_d: mean disk utilization across sites.
	DiskUtil float64
	// SubnetUtil is the ring's busy fraction (Table 11).
	SubnetUtil float64

	// Throughput is completed queries per time unit, system-wide.
	Throughput float64
	// RemoteFrac is the fraction of completed queries that executed away
	// from their home site.
	RemoteFrac float64
	// TransferFrac is the fraction of allocation decisions that chose a
	// remote site.
	TransferFrac float64
	// Migrations counts mid-execution migrations (zero unless the
	// migration extension is enabled).
	Migrations uint64

	// QueriesLost counts fault-induced execution losses over the run's
	// lifetime (site crashes wiping queries mid-service, dropped query
	// shipments, dropped result returns). Zero without fault injection.
	QueriesLost uint64
	// QueriesRetried counts watchdog re-dispatches of lost queries
	// (lifetime). A query lost twice is retried twice.
	QueriesRetried uint64
	// QueriesRejected counts queries given up on over the run's
	// lifetime: no allowed execution site existed at submission, or the
	// retry budget ran out. These never complete and are excluded from
	// every response-time statistic.
	QueriesRejected uint64
	// SiteCrashes counts site failures over the run's lifetime.
	SiteCrashes uint64
	// Downtime is each site's accumulated downtime inside the measured
	// window (nil without fault injection).
	Downtime []float64
	// Availability is the mean fraction of site-time the sites were up
	// over the measured window (1 without fault injection).
	Availability float64
	// AvailResponse is the availability-weighted mean response time
	// MeanResponse / Availability: the response-time cost of the
	// capacity the failures removed. Equals MeanResponse at
	// availability 1.
	AvailResponse float64
	// QueriesShed counts queries rejected outright by overload admission
	// control over the run's lifetime (each is also counted in
	// QueriesRejected). Zero without admission control.
	QueriesShed uint64
	// QueriesDeferred counts admission deferrals over the run's lifetime
	// (a query bounced twice is counted twice). Zero without admission
	// control.
	QueriesDeferred uint64
	// HerdTransfers counts measured remote allocations that moved a query
	// onto a site truly busier than its home at the decision instant —
	// transfers the policy's (stale or noise-misled) load view got wrong.
	HerdTransfers uint64
	// HerdFrac is HerdTransfers / measured transfers (0 when no query
	// transferred).
	HerdFrac float64
	// EstReadsErr and EstCPUErr are the mean realized relative errors of
	// the optimizer estimates the policies acted on, over measured
	// allocations: |EstReads − ReadsTotal| / ReadsTotal and
	// |EstPageCPU − class PageCPUTime| / PageCPUTime. Without injected
	// noise EstReadsErr reflects only the class-mean vs sampled spread
	// and EstCPUErr is zero.
	EstReadsErr float64
	EstCPUErr   float64
	// RespQuantiles are the measured response-time tail quantiles
	// (p50/p90/p95/p99/p999) over all classes, from the log-bucketed
	// histogram (≤2% relative quantile error).
	RespQuantiles stats.Quantiles
	// OpenArrivals counts queries injected by the open-arrival sources
	// over the run's lifetime (zero in closed mode).
	OpenArrivals uint64
	// DeadlineMet and DeadlineMisses count queries completing within and
	// beyond their deadline over the run's lifetime (zero without
	// deadlines). Each miss aborts its query.
	DeadlineMet    uint64
	DeadlineMisses uint64
	// QueriesAborted counts queries withdrawn mid-flight by a deadline
	// abort over the run's lifetime (each is also counted in
	// QueriesRejected).
	QueriesAborted uint64
	// Hedged counts hedge clones launched and HedgeWins the races the
	// clone finished first (lifetime; zero without hedging).
	Hedged    uint64
	HedgeWins uint64
	// ReplicasRebuilt, ReplicasAdded and ReplicasDropped count the replica
	// manager's copy installs (deficit rebuilds and load-driven
	// promotions) and load-driven removals over the run's lifetime;
	// RebuildsAborted counts fragment shipments that died mid-copy (donor
	// or target crash, ring drop). All zero without the replica manager.
	ReplicasRebuilt uint64
	ReplicasAdded   uint64
	ReplicasDropped uint64
	RebuildsAborted uint64
	// DegradedReads counts dispatches of queries whose fragment no up
	// site held: the chosen site fetched the fragment over the ring
	// before executing (lifetime; zero without the replica manager).
	DegradedReads uint64
	// NoReplicaRejects counts queries rejected at allocation because no
	// up site could serve their fragment — reject-mode degraded reads, or
	// every site down (each is also counted in QueriesRejected).
	NoReplicaRejects uint64
	// MeanRebuildLatency is the mean time from a fragment falling below
	// MinCopies to the rebuild restoring it (lifetime; zero when no
	// deficit was repaired).
	MeanRebuildLatency float64
	// FragAvailability and MinFragAvailability are the mean and minimum,
	// over fragments, of the fraction of the measured window each
	// fragment had at least one up holder — fragment-weighted
	// availability, which unlike Availability counts "site up but data
	// gone" as unavailable. Both 1 when the database is fully replicated
	// or failures are off.
	FragAvailability    float64
	MinFragAvailability float64
	// Operators counts operator-carrier attempts dispatched by the
	// parallel-query subsystem over the run's lifetime (hedge clones
	// included); OperatorsCompleted/Aborted/Preempted split their fates
	// (finished; withdrawn by a deadline abort, plan collapse, or lost
	// hedge race; destroyed by a fault). All zero with the subsystem
	// off. The json omitempty tags keep disabled-run JSON output
	// byte-identical to builds without the subsystem.
	Operators          uint64 `json:",omitempty"`
	OperatorsCompleted uint64 `json:",omitempty"`
	OperatorsAborted   uint64 `json:",omitempty"`
	OperatorsPreempted uint64 `json:",omitempty"`
	// ParallelQueries counts queries that became multi-operator plans;
	// DOPHist[k-1] counts plans whose instances landed on exactly k
	// distinct sites (nil until the first multi-operator plan).
	ParallelQueries uint64   `json:",omitempty"`
	DOPHist         []uint64 `json:",omitempty"`
	// IntermediateBytes is the total ring size of intermediate operator
	// results shipped between sites (lifetime).
	IntermediateBytes float64 `json:",omitempty"`
	// OpCPUBusy, OpDiskBusy and OpNetBusy are the per-resource busy-time
	// ledger of completed operator attempts: realized CPU, disk, and
	// network service folded into their logical queries (lifetime).
	OpCPUBusy  float64 `json:",omitempty"`
	OpDiskBusy float64 `json:",omitempty"`
	OpNetBusy  float64 `json:",omitempty"`
	// SlowEpisodes counts fail-slow onsets over the run's lifetime and
	// DegradedTime is each site's fail-slow time inside the measured
	// window (nil without fail-slow injection). Unlike a crash, a
	// degraded site loses no queries — it just serves them slower. The
	// json omitempty tags keep disabled-run JSON output byte-identical
	// to builds without the subsystem.
	SlowEpisodes uint64    `json:",omitempty"`
	DegradedTime []float64 `json:",omitempty"`
	// Brownouts counts ring-brownout onsets (lifetime) and BrownoutTime
	// the browned-out ring time inside the measured window.
	Brownouts    uint64  `json:",omitempty"`
	BrownoutTime float64 `json:",omitempty"`
	// SuspectTransfers counts measured allocations the gray-failure
	// detector steered off a suspect home site; SuspectSites is the
	// number of sites under suspicion at measurement end. Zero without
	// the detector.
	SuspectTransfers uint64 `json:",omitempty"`
	SuspectSites     int    `json:",omitempty"`
	// HedgeWinsVsSlow counts hedge races the clone won while the
	// primary's site was inside a fail-slow episode — straggler hedges
	// that demonstrably beat a gray failure (lifetime; zero without
	// hedging or fail-slow).
	HedgeWinsVsSlow uint64 `json:",omitempty"`
	// TraceDigest is the scheduler's running event-stream hash (zero
	// unless Config.TraceDigest was set). Equal digests mean the two runs
	// fired identical event sequences.
	TraceDigest uint64
	// EventsFired is the total number of scheduler events executed over
	// the run's lifetime (warmup included) — the numerator of the
	// events/op and events/s the Go benchmarks report.
	EventsFired uint64
}

// UtilizationRatio returns ρ_d/ρ_c as reported in Table 12 (0 if the CPU
// was idle).
func (r Results) UtilizationRatio() float64 {
	if r.CPUUtil == 0 {
		return 0
	}
	return r.DiskUtil / r.CPUUtil
}
