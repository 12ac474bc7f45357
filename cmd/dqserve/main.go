// Command dqserve runs the allocator as a live HTTP/JSON service: it
// ingests per-site load reports, answers "which site runs this query"
// through the policy/Tuning stack, and wraps every path in the
// robustness stack of internal/serve — per-request deadlines, staleness
// aging with round-robin fallback, per-site circuit breakers,
// bounded-wait backpressure, health/readiness endpoints, and graceful
// drain on SIGINT/SIGTERM.
//
// Endpoints:
//
//	POST /v1/decide  {"class":0,"home":2}            → {"site":4,...}
//	POST /v1/report  {"site":4,"num_io":3,"num_cpu":1}
//	GET  /v1/stats   service counters, breaker states, latency quantiles
//	GET  /healthz    process liveness
//	GET  /readyz     503 while draining or with no fresh site reports
//
// Usage:
//
//	dqserve -addr :8080 -policy LERT -sites 6 -ttl 1s
//
// Drive it with cmd/dqload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dqserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dqserve", flag.ContinueOnError)
	fs.SetOutput(w)
	def := serve.Default()
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		polName    = fs.String("policy", "LERT", "allocation policy: LOCAL, RANDOM, BNQ, BNQRD, LERT, WORK")
		sites      = fs.Int("sites", def.NumSites, "number of execution sites")
		disks      = fs.Int("disks", def.NumDisks, "disks per site (cost model)")
		seed       = fs.Uint64("seed", def.Seed, "random seed for the policy streams")
		ttl        = fs.Duration("ttl", def.TTL, "report freshness horizon")
		gapFactor  = fs.Float64("gap-factor", def.GapFactor, "breaker opens after gap-factor×ttl without a report")
		openFor    = fs.Duration("open-for", def.OpenFor, "breaker open→half-open cooldown")
		probes     = fs.Int("half-open-probes", def.HalfOpenProbes, "probe decisions allowed while half-open")
		rejects    = fs.Int("reject-threshold", def.RejectThreshold, "consecutive rejecting reports to open a breaker")
		slowLat    = fs.Duration("slow-latency", def.SlowLatency, "report latency_ms above this demotes the site to half-open probation (0 = off)")
		admitMax   = fs.Int("admit-max", 0, "per-site committed-query cap (0 = unbounded)")
		queueBound = fs.Int("queue-bound", def.QueueBound, "decides that may wait for the decision token (beyond it requests are shed)")
		deadline   = fs.Duration("deadline", def.DefaultDeadline, "default per-request decision deadline")
		maxDl      = fs.Duration("max-deadline", def.MaxDeadline, "clamp on client-supplied deadlines")
		hyst       = fs.Float64("hyst", 0, "anti-herd hysteresis margin in [0,1)")
		powerK     = fs.Int("power-k", 0, "anti-herd power-of-K remote sampling (0 = scan all)")
		randomTies = fs.Bool("random-ties", false, "anti-herd probabilistic tie-breaking")
		drain      = fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	kind, err := policy.ParseKind(*polName)
	if err != nil {
		return err
	}

	cfg := def
	cfg.Policy = kind
	cfg.NumSites = *sites
	cfg.NumDisks = *disks
	cfg.Seed = *seed
	cfg.TTL = *ttl
	cfg.GapFactor = *gapFactor
	cfg.OpenFor = *openFor
	cfg.HalfOpenProbes = *probes
	cfg.RejectThreshold = *rejects
	cfg.SlowLatency = *slowLat
	cfg.AdmitMax = *admitMax
	cfg.QueueBound = *queueBound
	cfg.DefaultDeadline = *deadline
	cfg.MaxDeadline = *maxDl
	cfg.Tuning = policy.Tuning{Hysteresis: *hyst, PowerK: *powerK, RandomTies: *randomTies}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(w, "dqserve: policy=%s sites=%d ttl=%v listening on %s\n",
		strings.ToUpper(*polName), *sites, *ttl, ln.Addr())

	// Read and idle timeouts bound how long a stalled or silent client
	// can pin a connection — without them one stuck peer can hold a
	// graceful drain hostage for the whole drain budget.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop readiness and refuse new decides, let
	// in-flight requests finish, then wait for the last decide.
	fmt.Fprintln(w, "dqserve: draining")
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		// Drain budget blown: force-close the listener and connections.
		// Handlers may still be mid-flight; draining refuses every new
		// decide, and each admitted one is bounded by its deadline, so
		// give them a fresh beat to answer since dctx has expired.
		hs.Close()
		fctx, fcancel := context.WithTimeout(context.Background(), time.Second)
		defer fcancel()
		srv.Shutdown(fctx)
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(w, "dqserve: drained: %d requests (%d decided, %d fallback, %d shed, %d expired), %d reports, %d breaker opens\n",
		st.Requests, st.Decided, st.Fallback, st.Shed, st.Expired, st.Reports, st.BreakerOpens)
	return nil
}
