// Command dqload drives a running dqserve instance with an open-loop
// Poisson request stream and plays the part of the sites themselves:
// one reporter goroutine per site posts /v1/report at the report
// period, with outstanding-query counts that rise on each routed
// decision and fall after an exponentially distributed synthetic
// service time. That closes the feedback loop the paper's allocation
// policies depend on — decisions change reported loads, which change
// later decisions. Before the clock starts, every site reports and the
// driver polls /readyz until the server is ready or -timeout elapses,
// so a server that is itself still starting is not charged for it.
//
// The client tallies every outcome class (decided, fallback, shed,
// unavailable, expired, transport error), tracks decision latency in a
// log-bucketed histogram, and exits non-zero if availability — the
// fraction of requests that received a routing decision — falls below
// -floor. SIGINT/SIGTERM flush the partial summary and exit non-zero.
//
// With -closed the open-loop Poisson source is replaced by a fixed pool
// of -concurrency workers that each keep exactly one request in flight
// — decide, hold the chosen site's outstanding count for a synthetic
// service time, repeat — so offered load self-regulates with server
// latency, like the paper's closed terminal model.
//
// Usage:
//
//	dqload -url http://127.0.0.1:8080 -rate 200 -duration 10s -floor 0.99
//	dqload -url http://127.0.0.1:8080 -closed -concurrency 16 -duration 10s -floor 0.99
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dqalloc/internal/rng"
	"dqalloc/internal/serve"
	"dqalloc/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqload:", err)
		os.Exit(1)
	}
}

// siteState is one site's synthetic outstanding-load accounting, shared
// between decision workers (increment), service-completion timers
// (decrement), and the reporter goroutine (read).
type siteState struct {
	numIO  atomic.Int64
	numCPU atomic.Int64
}

// tally aggregates client-side outcomes; one mutex guards the counters
// and the latency histogram together.
type tally struct {
	mu          sync.Mutex
	sent        int64
	decided     int64
	fallback    int64
	shed        int64
	unavailable int64
	expired     int64
	rejected4xx int64
	badSite     int64
	netErrors   int64
	hist        *stats.LogHistogram
}

// routed returns how many requests received a routing decision.
func (t *tally) routed() int64 { return t.decided + t.fallback }

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dqload", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		url        = fs.String("url", "http://127.0.0.1:8080", "dqserve base URL")
		sites      = fs.Int("sites", 6, "number of sites to emulate (must match the server)")
		classes    = fs.Int("classes", 2, "number of query classes (must match the server)")
		rate       = fs.Float64("rate", 200, "mean request arrival rate per second (open loop)")
		closed     = fs.Bool("closed", false, "closed-loop mode: -concurrency workers each keep one request in flight (-rate is ignored)")
		workersN   = fs.Int("concurrency", 8, "closed-loop worker count for -closed")
		duration   = fs.Duration("duration", 5*time.Second, "run length")
		reportEach = fs.Duration("report-period", 100*time.Millisecond, "per-site load report period")
		svcMean    = fs.Duration("service-mean", 20*time.Millisecond, "mean synthetic service time at a site")
		deadlineMS = fs.Float64("deadline-ms", 0, "per-request decision deadline (0 = server default)")
		seed       = fs.Uint64("seed", 1, "random seed for arrivals and service times")
		floor      = fs.Float64("floor", 0, "minimum acceptable availability in [0,1]; below it exit non-zero")
		timeout    = fs.Duration("timeout", 2*time.Second, "HTTP client timeout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage is printed; asking for it is no failure
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *sites <= 0 || *classes <= 0 || *rate <= 0 {
		return fmt.Errorf("sites, classes, and rate must be positive")
	}
	if *closed && *workersN <= 0 {
		return fmt.Errorf("-concurrency %d must be positive with -closed", *workersN)
	}
	if *floor < 0 || *floor > 1 {
		return fmt.Errorf("floor %v out of [0,1]", *floor)
	}

	client := &http.Client{Timeout: *timeout}
	states := make([]*siteState, *sites)
	for i := range states {
		states[i] = &siteState{}
	}
	tl := &tally{hist: stats.NewLogHistogram(1, 60e6, 0.02)}
	root := rng.NewStream(*seed)

	// A site that has never reported starts with its breaker open, so
	// every site reports and the server answers /readyz before the clock
	// starts; otherwise the requests sent before the first report-period
	// tick, or before a server still starting is up, are refused. A
	// server not ready within -timeout is driven anyway and the floor
	// judges the run. Reporters then post every report period until the
	// run context ends.
	if !waitReady(ctx, client, *url, states, *timeout) {
		fmt.Fprintf(w, "dqload: %s not ready after %v; starting anyway\n", *url, *timeout)
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var reporters sync.WaitGroup
	for i := 0; i < *sites; i++ {
		reporters.Add(1)
		go func(site int) {
			defer reporters.Done()
			tick := time.NewTicker(*reportEach)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					postReport(runCtx, client, *url, site, states[site])
				}
			}
		}(i)
	}

	var workers sync.WaitGroup
	interrupted := false
	if *closed {
		// Closed-loop mode: each worker keeps exactly one request in
		// flight — decide, "execute" by holding the site's outstanding
		// count for a service time, repeat. Offered load self-regulates
		// with server latency, the way the paper's closed terminals do.
		loopCtx, cancelLoop := context.WithTimeout(ctx, *duration)
		defer cancelLoop()
		for i := 0; i < *workersN; i++ {
			workers.Add(1)
			go func(id int) {
				defer workers.Done()
				r := root.Child(uint64(10 + id))
				for loopCtx.Err() == nil {
					class := r.Intn(*classes)
					home := r.Intn(*sites)
					site, ok := postDecide(client, *url, class, home, *sites, *deadlineMS, tl)
					if !ok {
						// Back off briefly so a dead or shedding server
						// does not turn the loop into a busy spin.
						select {
						case <-loopCtx.Done():
						case <-time.After(5 * time.Millisecond):
						}
						continue
					}
					ctr := &states[site].numCPU
					if class%2 == 0 {
						ctr = &states[site].numIO
					}
					ctr.Add(1)
					hold := time.Duration(r.Exp(float64(*svcMean)))
					select {
					case <-loopCtx.Done():
					case <-time.After(hold):
					}
					ctr.Add(-1)
				}
			}(i)
		}
		workers.Wait()
		interrupted = ctx.Err() != nil
	} else {
		// Open-loop arrivals: a single goroutine draws Poisson
		// interarrivals and fires one worker per request, never waiting
		// for responses.
		arr := root.Child(1)
		svc := rng.NewStream(*seed).Child(2)
		var svcMu sync.Mutex // service draws happen on worker goroutines
		deadline := time.NewTimer(*duration)
		defer deadline.Stop()

	arrivals:
		for {
			wait := time.Duration(arr.Exp(float64(time.Second) / *rate))
			select {
			case <-ctx.Done():
				interrupted = true
				break arrivals
			case <-deadline.C:
				break arrivals
			case <-time.After(wait):
			}
			class := arr.Intn(*classes)
			home := arr.Intn(*sites)
			workers.Add(1)
			go func() {
				defer workers.Done()
				site, ok := postDecide(client, *url, class, home, *sites, *deadlineMS, tl)
				if !ok {
					return
				}
				// The routed query "executes": bump the site's outstanding
				// count, then release it after an exponential service time.
				ctr := &states[site].numCPU
				if class%2 == 0 {
					ctr = &states[site].numIO
				}
				ctr.Add(1)
				svcMu.Lock()
				hold := time.Duration(svc.Exp(float64(*svcMean)))
				svcMu.Unlock()
				time.AfterFunc(hold, func() { ctr.Add(-1) })
			}()
		}

		workers.Wait()
	}
	cancelRun()
	reporters.Wait()

	tl.mu.Lock()
	defer tl.mu.Unlock()
	avail := 1.0
	if tl.sent > 0 {
		avail = float64(tl.routed()) / float64(tl.sent)
	}
	fmt.Fprintf(w, "dqload: sent=%d decided=%d fallback=%d shed=%d unavailable=%d expired=%d rejected=%d bad_site=%d net_errors=%d\n",
		tl.sent, tl.decided, tl.fallback, tl.shed, tl.unavailable, tl.expired, tl.rejected4xx, tl.badSite, tl.netErrors)
	fmt.Fprintf(w, "dqload: availability=%.4f latency_us p50=%.0f p99=%.0f\n",
		avail, tl.hist.Quantile(0.50), tl.hist.Quantile(0.99))
	if interrupted {
		return errors.New("interrupted; partial results above")
	}
	if *floor > 0 && avail < *floor {
		return fmt.Errorf("availability %.4f below floor %.4f", avail, *floor)
	}
	return nil
}

// postDecide issues one decision request, classifies the outcome into
// the tally, and returns the chosen site when one was granted. A site
// id outside [0, sites) — the server was configured with more sites
// than this driver emulates — is counted as badSite, not routed, so a
// topology mismatch fails the availability floor instead of panicking
// a worker.
func postDecide(client *http.Client, base string, class, home, sites int, deadlineMS float64, tl *tally) (site int, ok bool) {
	req := serve.DecideRequest{Class: class, Home: home, DeadlineMS: deadlineMS}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // the struct always marshals
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/decide", "application/json", bytes.NewReader(body))
	lat := float64(time.Since(start).Microseconds())

	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.sent++
	if err != nil {
		tl.netErrors++
		return 0, false
	}
	defer resp.Body.Close()
	tl.hist.Add(lat)
	switch resp.StatusCode {
	case http.StatusOK:
		var dr serve.DecideResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			tl.netErrors++
			return 0, false
		}
		if dr.Site < 0 || dr.Site >= sites {
			tl.badSite++
			return 0, false
		}
		if dr.Mode == "fallback" {
			tl.fallback++
		} else {
			tl.decided++
		}
		return dr.Site, true
	case http.StatusTooManyRequests:
		tl.shed++
	case http.StatusServiceUnavailable:
		tl.unavailable++
	case http.StatusGatewayTimeout:
		tl.expired++
	default:
		tl.rejected4xx++
	}
	return 0, false
}

// waitReady reports every site, then polls /readyz until it answers 200,
// timeout elapses or ctx ends, and says whether the server became ready.
// Every try reports again, so a server that comes up late still hears
// from each site before the first request.
func waitReady(ctx context.Context, client *http.Client, base string, states []*siteState, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		for i, st := range states {
			postReport(ctx, client, base, i, st)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return false // a malformed -url: every request fails alike
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// postReport sends one site's current synthetic load; report loss is
// tolerated silently — that is exactly the fault the server's staleness
// and breaker machinery absorbs.
func postReport(ctx context.Context, client *http.Client, base string, site int, st *siteState) {
	rep := serve.ReportRequest{
		Site:   site,
		NumIO:  int(max64(0, st.numIO.Load())),
		NumCPU: int(max64(0, st.numCPU.Load())),
	}
	body, _ := json.Marshal(rep)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/report", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
