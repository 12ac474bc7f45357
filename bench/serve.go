package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/rng"
	"dqalloc/internal/serve"
	"dqalloc/internal/workload"
)

// The serve workload runs the real cmd/dqserve with these flags: the
// Table-7 six sites under LERT, with one-second report freshness.
const serveSites = 6

var dqserveArgs = []string{"-addr", "127.0.0.1:0", "-policy", "LERT", "-sites", "6", "-ttl", "1s"}

// serveConfig is the in-process equivalent of dqserveArgs, for the replay
// of the request sequence through the serve package's public functions.
func serveConfig() serve.Config {
	cfg := serve.Default()
	cfg.Policy = policy.LERT
	cfg.NumSites = serveSites
	cfg.TTL = time.Second
	return cfg
}

const (
	coldStarts    = 7               // cold starts per run; setup_s is their median
	serveClients  = 1               // closed-loop clients, each on its own connection
	serveSegments = 6               // the measured window is cut into this many segments
	serveWarmup   = 2 * time.Second // unmeasured load before the first segment
	replayOps     = 20_000          // decide/report pairs replayed in process
	handlerOps    = 5_000           // of which also replayed through Handler().ServeHTTP
	stopTimeout   = 15 * time.Second
)

// daemon is one running server process: dqserve or the reference server
// (bench/refserve).
type daemon struct {
	cmd  *exec.Cmd
	out  *bufio.Reader
	base string // http://host:port
}

// startDaemon execs a server and waits for its listening line.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewReader(stdout)}
	line, err := d.out.ReadString('\n')
	const marker = "listening on "
	i := strings.LastIndex(line, marker)
	if err != nil || i < 0 {
		d.kill()
		return nil, fmt.Errorf("%s did not report its address (%q): %v", bin, line, err)
	}
	d.base = "http://" + strings.TrimSpace(line[i+len(marker):])
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it. Anything but a
// clean drain is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	timer := time.AfterFunc(stopTimeout, func() { d.cmd.Process.Kill() })
	defer timer.Stop()
	rest, _ := io.ReadAll(d.out)
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%s exit: %v: %s", d.cmd.Path, err, rest)
	}
	if !bytes.Contains(rest, []byte("drained")) {
		return fmt.Errorf("%s exited without draining: %s", d.cmd.Path, rest)
	}
	return nil
}

// kill stops the daemon on an error path and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	io.Copy(io.Discard, d.out)
	d.cmd.Wait()
}

// requests generates one worker's seeded request sequence. Each
// iteration draws its decide request and then the synthetic outstanding
// counts of the report for the site chosen, so the sequence of draws is
// the same however the server answers.
type requests struct{ s *rng.Stream }

func (r requests) decide() serve.DecideRequest {
	return serve.DecideRequest{Class: r.s.Intn(2), Home: r.s.Intn(serveSites)}
}

func (r requests) report(site int) serve.ReportRequest {
	return serve.ReportRequest{Site: site, NumIO: r.s.Intn(3), NumCPU: r.s.Intn(3)}
}

// workerStream is worker w's request sequence for a seed.
func workerStream(seed uint64, w int) requests {
	return requests{rng.NewStream(seed).Child(uint64(w))}
}

// client is one closed-loop worker: one keep-alive connection and its
// own request sequence. It sends its next request only after the
// previous answer has been read. When ref is set, every op is followed
// by the same op against the reference server.
type client struct {
	http *http.Client
	base string
	reqs requests
	tid  int
	ref  *client

	decided, reported int // successful decides and reports
}

func newClients(base string, n int, seed uint64) []*client {
	cs := make([]*client, n)
	for w := range cs {
		cs[w] = &client{
			http: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}},
			base: base,
			reqs: workerStream(seed, w),
			tid:  w + 1,
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// transportError marks a failure to reach the server at all, after which
// a worker stops instead of spinning on a dead connection.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }

// call sends one request and reads the whole answer. Its latency runs
// from send to the last body byte.
func (c *client) call(ctx context.Context, method, path string, v any) (int, []byte, time.Duration, error) {
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return 0, nil, 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, transportError{err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, nil, 0, transportError{err}
	}
	return resp.StatusCode, data, lat, nil
}

// iterate runs one op: POST /v1/decide, then POST /v1/report for the site
// chosen. Anything but a 200 policy decision and a 204 report fails it.
func (c *client) iterate(ctx context.Context, log *spanLog, parent int) (dec, rep time.Duration, err error) {
	t0 := time.Now()
	code, body, dec, err := c.call(ctx, http.MethodPost, "/v1/decide", c.reqs.decide())
	if err != nil {
		return 0, 0, err
	}
	var dr serve.DecideResponse
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("decide: status %d: %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &dr); err != nil || dr.Mode != "policy" || dr.Site < 0 || dr.Site >= serveSites {
		return 0, 0, fmt.Errorf("decide: unexpected answer %s", bytes.TrimSpace(body))
	}
	c.decided++
	code, body, rep, err = c.call(ctx, http.MethodPost, "/v1/report", c.reqs.report(dr.Site))
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusNoContent {
		return 0, 0, fmt.Errorf("report: status %d: %s", code, bytes.TrimSpace(body))
	}
	c.reported++
	if log != nil {
		log.add("POST /v1/decide", t0, t0.Add(dec), parent, c.tid)
		log.add("POST /v1/report", t0.Add(dec), t0.Add(dec+rep), parent, c.tid)
	}
	return dec, rep, nil
}

// segment is the load measured over one stretch of the run, latencies in
// µs per successful op; ref holds the reference server's op latencies.
type segment struct {
	iter, decide, report, ref []float64
	attempted, failed         int
	problems                  []string
	elapsed                   time.Duration
}

// scaledIter is the segment's median op latency scaled to the reference
// host, in seconds.
func (s segment) scaledIter() float64 {
	return median(s.iter) / median(s.ref) * refServeNominal.Seconds()
}

// drive runs every client in a closed loop for d and merges what they
// measured. When log is non-nil each request is recorded as a span
// under parent.
func drive(ctx context.Context, cs []*client, d time.Duration, log *spanLog, parent int) segment {
	parts := make([]segment, len(cs))
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func(s *segment, c *client) {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				dec, rep, err := c.iterate(ctx, log, parent)
				s.attempted++
				var ref time.Duration
				if err == nil && c.ref != nil {
					var rdec, rrep time.Duration
					if rdec, rrep, err = c.ref.iterate(ctx, nil, -1); err != nil {
						err = fmt.Errorf("reference server: %w", err)
					}
					ref = rdec + rrep
				}
				if err != nil {
					s.failed++
					if len(s.problems) < 3 {
						s.problems = append(s.problems, err.Error())
					}
					if _, ok := err.(transportError); ok {
						return
					}
					continue
				}
				s.decide = append(s.decide, us(dec))
				s.report = append(s.report, us(rep))
				s.iter = append(s.iter, us(dec+rep))
				if c.ref != nil {
					s.ref = append(s.ref, us(ref))
				}
			}
		}(&parts[i], c)
	}
	wg.Wait()
	all := segment{elapsed: time.Since(t0)}
	for _, p := range parts {
		all.iter = append(all.iter, p.iter...)
		all.decide = append(all.decide, p.decide...)
		all.report = append(all.report, p.report...)
		all.ref = append(all.ref, p.ref...)
		all.attempted += p.attempted
		all.failed += p.failed
		all.problems = append(all.problems, p.problems...)
	}
	return all
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// account folds a segment's op counts into the run's.
func (out *outcome) account(s segment) {
	out.attempted += s.attempted
	out.failed += s.failed
	for _, p := range s.problems {
		out.problem(p)
	}
}

// coldStart execs a server, sends one report per site and polls /readyz
// until it answers 200. The returned duration runs from exec to ready.
func coldStart(ctx context.Context, bin string, args ...string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, args...)
	if err != nil {
		return nil, 0, err
	}
	c := newClients(d.base, 1, 0)[0]
	defer closeClients([]*client{c})
	if err := sendInitialReports(ctx, c); err != nil {
		d.kill()
		return nil, 0, err
	}
	for {
		code, _, _, err := c.call(ctx, http.MethodGet, "/readyz", nil)
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		if code == http.StatusOK {
			return d, time.Since(t0), nil
		}
		if time.Since(t0) > stopTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("%s not ready after %v", bin, stopTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendInitialReports reports every site idle, which makes a fresh server
// routable.
func sendInitialReports(ctx context.Context, c *client) error {
	for s := 0; s < serveSites; s++ {
		code, body, _, err := c.call(ctx, http.MethodPost, "/v1/report", serve.ReportRequest{Site: s})
		if err != nil {
			return err
		}
		if code != http.StatusNoContent {
			return fmt.Errorf("initial report: status %d: %s", code, bytes.TrimSpace(body))
		}
	}
	return nil
}

// fetchStats reads /v1/stats.
func fetchStats(ctx context.Context, c *client) (serve.Stats, error) {
	var st serve.Stats
	code, body, _, err := c.call(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// checkStats checks that the server counted exactly the traffic the
// clients sent: every decide a policy decision, every report accepted,
// and the decide counters conserved.
func checkStats(st serve.Stats, cs []*client) error {
	var decided, reported int
	for _, c := range cs {
		decided += c.decided
		reported += c.reported
	}
	sum := st.Decided + st.Fallback + st.NoCapacity + st.Unavailable + st.Shed + st.Expired + st.Malformed + st.Draining
	switch {
	case st.Requests != sum:
		return fmt.Errorf("stats do not conserve: %d requests, %d resolved", st.Requests, sum)
	case st.Decided != uint64(decided):
		return fmt.Errorf("server decided %d, clients saw %d decisions", st.Decided, decided)
	case st.Reports != uint64(reported+serveSites):
		return fmt.Errorf("server took %d reports, clients sent %d", st.Reports, reported+serveSites)
	}
	return nil
}

// serveRun is one measured server: its cold starts, its load segments
// and what it reported.
type serveRun struct {
	setups    []float64 // dqserve, exec to ready, in seconds
	refStarts []float64 // the reference server's, one before and after each of dqserve's
	segs      []segment
	traced    []bool // per segment
	stats     serve.Stats
	clients   []*client
}

// runServe cold-starts dqserve `starts` times (keeping the last server),
// warms it, drives the measured segments, reads /v1/stats and drains it.
// Odd segments record spans when log is non-nil. With withRef, every
// dqserve cold start lies between two of the reference server, the last
// of which keeps running, and each op is followed by one against it.
func runServe(ctx context.Context, o options, starts int, log *spanLog, withRef bool, out *outcome) (*serveRun, error) {
	if o.dqserve == "" {
		return nil, fmt.Errorf("the serve workload needs -dqserve, the path of a built cmd/dqserve")
	}
	if withRef && o.refserve == "" {
		return nil, fmt.Errorf("the serve workload needs -refserve, the path of a built bench/refserve")
	}
	r := &serveRun{}
	// Whatever still runs when runServe returns is killed.
	var d, ref *daemon
	defer func() {
		for _, x := range []*daemon{d, ref} {
			if x != nil {
				x.kill()
			}
		}
	}()
	startRef := func() error {
		x, t, err := coldStart(ctx, o.refserve)
		if err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
		ref = x
		r.refStarts = append(r.refStarts, t.Seconds())
		return nil
	}
	for i := 0; i < starts; i++ {
		if withRef {
			if err := startRef(); err != nil {
				return nil, err
			}
			err := ref.stop()
			ref = nil
			if err != nil {
				return nil, fmt.Errorf("reference server: %w", err)
			}
		}
		x, setup, err := coldStart(ctx, o.dqserve, dqserveArgs...)
		if err != nil {
			return nil, err
		}
		d = x
		out.attempted++
		r.setups = append(r.setups, setup.Seconds())
		if i < starts-1 {
			err := d.stop()
			d = nil
			if err != nil {
				out.fail("cold start %d: %v", i, err)
			}
		}
	}
	if withRef {
		if err := startRef(); err != nil {
			return nil, err
		}
	}

	r.clients = newClients(d.base, serveClients, o.seed)
	defer closeClients(r.clients)
	if ref != nil {
		refs := newClients(ref.base, serveClients, o.seed)
		defer closeClients(refs)
		for i, c := range r.clients {
			c.ref = refs[i]
		}
	}
	out.account(drive(ctx, r.clients, time.Duration(float64(serveWarmup)*o.scale), nil, -1))
	segDur := o.seconds / serveSegments
	for i := 0; i < serveSegments && ctx.Err() == nil; i++ {
		traced := log != nil && i%2 == 1
		var s segment
		if traced {
			id := log.open("segment", -1, 0)
			s = drive(ctx, r.clients, segDur, log, id)
			log.close(id)
		} else {
			s = drive(ctx, r.clients, segDur, nil, -1)
		}
		out.account(s)
		r.segs = append(r.segs, s)
		r.traced = append(r.traced, traced)
	}
	st, err := fetchStats(ctx, r.clients[0])
	if err != nil {
		return nil, err
	}
	r.stats = st
	out.attempted++
	if err := checkStats(st, r.clients); err != nil {
		out.fail("%v", err)
	}
	err = d.stop()
	d = nil
	if err != nil {
		out.fail("measured server: %v", err)
	}
	if ref != nil {
		err := ref.stop()
		ref = nil
		if err != nil {
			return nil, fmt.Errorf("reference server: %w", err)
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return r, nil
}

// segMedian is the median over the chosen segments of f(segment).
func (r *serveRun) segMedian(traced bool, f func(segment) float64) float64 {
	var xs []float64
	for i, s := range r.segs {
		if r.traced[i] == traced && len(s.iter) > 0 {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// measureServe is the untraced serve benchmark. An op is one
// decide→report iteration; run_s is its median client-side latency and
// setup_s the median cold start, each scaled by the reference server's.
func measureServe(ctx context.Context, o options, out *outcome) error {
	r, err := runServe(ctx, o, coldStarts, nil, true, out)
	if err != nil {
		return err
	}
	var setups []float64
	for i, s := range r.setups {
		ref := (r.refStarts[i] + r.refStarts[i+1]) / 2
		setups = append(setups, s*refStartNominal.Seconds()/ref)
	}
	out.set("run_s", r.segMedian(false, segment.scaledIter), "s")
	out.set("setup_s", median(setups), "s")
	for _, s := range r.segs {
		if len(s.iter) > 0 {
			out.samples["run_s"] = append(out.samples["run_s"], s.scaledIter())
		}
	}
	out.samples["setup_s"] = setups
	out.note("raw_run_s", r.segMedian(false, func(s segment) float64 { return median(s.iter) })/1e6, "s")
	out.note("raw_setup_s", median(r.setups), "s")
	out.note("host.ref_op_us", r.segMedian(false, func(s segment) float64 { return median(s.ref) }), "us")
	out.note("host.ref_start_s", median(r.refStarts), "s")
	r.noteSamples(false, out)
	out.note("samples.setup", float64(len(r.setups)), "count")
	return nil
}

// noteClientLatency reports the client-side throughput and latency
// quantiles, each the median over segments, with the sample counts.
func (r *serveRun) noteClientLatency(traced bool, set func(string, float64, string)) {
	set("serve.decisions_per_s", r.segMedian(traced, func(s segment) float64 {
		return float64(len(s.decide)) / s.elapsed.Seconds()
	}), "1/s")
	set("serve.decide_p50_us", r.segMedian(traced, func(s segment) float64 { return median(s.decide) }), "us")
	set("serve.decide_p99_us", r.segMedian(traced, func(s segment) float64 { return percentile(s.decide, 99) }), "us")
	set("serve.decide_p999_us", r.segMedian(traced, func(s segment) float64 { return percentile(s.decide, 99.9) }), "us")
	set("serve.report_p50_us", r.segMedian(traced, func(s segment) float64 { return median(s.report) }), "us")
	set("serve.report_p99_us", r.segMedian(traced, func(s segment) float64 { return percentile(s.report, 99) }), "us")
}

// noteSamples states how many ops each quantile above rests on.
func (r *serveRun) noteSamples(traced bool, out *outcome) {
	out.note("samples.segments", float64(len(r.segs)), "count")
	out.note("samples.decides_per_segment", r.segMedian(traced, func(s segment) float64 { return float64(len(s.decide)) }), "count")
}

// tracedServe is the per-layer serve benchmark: segments alternate
// untraced and traced, /v1/stats gives the server's own view, and an
// in-process replay of the request sequence times each serve layer.
func tracedServe(ctx context.Context, o options, out *outcome, log *spanLog) error {
	r, err := runServe(ctx, o, 1, log, false, out)
	if err != nil {
		return err
	}
	r.noteClientLatency(true, out.set)
	r.noteSamples(true, out)
	untraced := r.segMedian(false, func(s segment) float64 { return median(s.iter) })
	traced := r.segMedian(true, func(s segment) float64 { return median(s.iter) })
	out.set("trace.overhead_frac", traced/untraced-1, "fraction")

	st := r.stats
	out.set("serve.server_p50_us", st.LatencyP50US, "us")
	out.set("serve.server_p99_us", st.LatencyP99US, "us")
	out.set("serve.requests", float64(st.Requests), "count")
	out.set("serve.decided", float64(st.Decided), "count")
	out.set("serve.fallback", float64(st.Fallback), "count")
	out.set("serve.shed", float64(st.Shed), "count")
	out.set("serve.expired", float64(st.Expired), "count")
	out.set("serve.late_decides", float64(st.LateDecides), "count")
	out.set("serve.reports", float64(st.Reports), "count")
	out.set("serve.breaker_opens", float64(st.BreakerOpens), "count")

	out.attempted++
	if err := replayServe(o.seed, out); err != nil {
		out.fail("replay: %v", err)
		return nil
	}
	out.set("serve.transport_us", out.metrics["serve.decide_p50_us"].Value-out.metrics["serve.handler_decide_us"].Value, "us")
	return nil
}

// replayServe replays worker 0's request sequence in process through the
// serve package's public layers, each timed alone: the decoders, the
// decision core, the response encoder, and the whole handler on a
// recorder with no sockets.
func replayServe(seed uint64, out *outcome) error {
	cfg := serveConfig()
	reqs := workerStream(seed, 0)
	core, err := serve.NewCore(cfg)
	if err != nil {
		return err
	}
	now := time.Now()
	for s := 0; s < serveSites; s++ {
		if err := core.Report(s, 0, 0, 0, 0, 0, 0, now); err != nil {
			return err
		}
	}
	tc := timerCost()
	decBodies := make([][]byte, replayOps)
	repBodies := make([][]byte, replayOps)
	var decT, repT time.Duration
	for i := 0; i < replayOps; i++ {
		dr := reqs.decide()
		decBodies[i], _ = json.Marshal(dr)
		// The handler fills zero estimates with the class means.
		cl := cfg.Classes[dr.Class]
		q := workload.Query{Class: dr.Class, Home: dr.Home, Exec: dr.Home, EstReads: cl.NumReads, EstPageCPU: cl.PageCPUTime}
		t0 := time.Now()
		site, oc := core.Decide(&q, now)
		decT += time.Since(t0)
		if oc != serve.OutcomeDecided {
			return fmt.Errorf("core decision %d: outcome %v", i, oc)
		}
		rr := reqs.report(site)
		repBodies[i], _ = json.Marshal(rr)
		t0 = time.Now()
		err := core.Report(rr.Site, rr.NumIO, rr.NumCPU, 0, 0, 0, 0, now)
		repT += time.Since(t0)
		if err != nil {
			return err
		}
	}
	out.set("serve.core_decide_ns", perCall(decT, replayOps, tc), "ns")
	out.set("serve.core_report_ns", perCall(repT, replayOps, tc), "ns")

	t0 := time.Now()
	for _, b := range decBodies {
		if _, err := serve.DecodeDecideRequest(b, len(cfg.Classes), cfg.NumSites); err != nil {
			return err
		}
	}
	out.set("serve.decode_decide_ns", float64(time.Since(t0))/replayOps, "ns")
	t0 = time.Now()
	for _, b := range repBodies {
		if _, err := serve.DecodeReportRequest(b, cfg.NumSites); err != nil {
			return err
		}
	}
	out.set("serve.decode_report_ns", float64(time.Since(t0))/replayOps, "ns")

	var buf bytes.Buffer
	resp := serve.DecideResponse{Site: 1, Mode: "policy", Policy: policy.LERT.String()}
	t0 = time.Now()
	for i := 0; i < replayOps; i++ {
		buf.Reset()
		// The handler builds a fresh encoder per response, as here.
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return err
		}
	}
	out.set("serve.encode_ns", float64(time.Since(t0))/replayOps, "ns")

	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	serveOnce := func(path string, body []byte, want int) (float64, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != want {
			return 0, fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return us(d), nil
	}
	for s := 0; s < serveSites; s++ {
		b, _ := json.Marshal(serve.ReportRequest{Site: s})
		if _, err := serveOnce("/v1/report", b, http.StatusNoContent); err != nil {
			return err
		}
	}
	var decUS, repUS []float64
	for i := 0; i < handlerOps; i++ {
		d, err := serveOnce("/v1/decide", decBodies[i], http.StatusOK)
		if err != nil {
			return err
		}
		r, err := serveOnce("/v1/report", repBodies[i], http.StatusNoContent)
		if err != nil {
			return err
		}
		decUS = append(decUS, d)
		repUS = append(repUS, r)
	}
	out.set("serve.handler_decide_us", median(decUS), "us")
	out.set("serve.handler_report_us", median(repUS), "us")
	return nil
}
