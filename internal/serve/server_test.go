package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dqalloc/internal/policy"
)

// startServer builds a server on a fake clock and wraps it in httptest.
func startServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	cfg.Clock = clk.Now
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, ts, clk
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func sendReport(t *testing.T, url string, site, numIO, numCPU, rejected int) {
	t.Helper()
	body := fmt.Sprintf(`{"site":%d,"num_io":%d,"num_cpu":%d,"rejected":%d}`, site, numIO, numCPU, rejected)
	resp, out := postJSON(t, url+"/v1/report", body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report: status %d: %s", resp.StatusCode, out)
	}
}

func TestServerDecideLifecycle(t *testing.T) {
	srv, ts, _ := startServer(t, nil)

	// healthz is alive before any report; readyz is not.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before reports: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()

	// No reports yet: decisions are 503.
	resp, _ = postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide without reports: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after reports: %v %v, want 200", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, body := postJSON(t, ts.URL+"/v1/decide", `{"class":1,"home":2,"est_reads":10}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d: %s", resp.StatusCode, body)
	}
	var dr DecideResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decide response does not parse: %v", err)
	}
	if dr.Site < 0 || dr.Site >= 3 || dr.Mode != "policy" || dr.Policy != "BNQ" {
		t.Errorf("decide response = %+v", dr)
	}

	st := srv.Stats()
	if st.Requests != 2 || st.Decided != 1 || st.Unavailable != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reports != 3 {
		t.Errorf("reports = %d, want 3", st.Reports)
	}
	if st.LatencyP99US <= 0 {
		t.Errorf("latency p99 = %v, want > 0", st.LatencyP99US)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	cases := []string{
		``,
		`{`,
		`[]`,
		`{"class":99,"home":0}`,
		`{"class":0,"home":-1}`,
		`{"class":0,"home":0,"est_reads":-5}`,
		`{"class":0,"home":0,"deadline_ms":1e13}`,
		`{"class":0,"home":0,"bogus":1}`,
		`{"class":0,"home":0} trailing`,
	}
	for _, body := range cases {
		resp, out := postJSON(t, ts.URL+"/v1/decide", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("decide %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
	badReports := []string{
		`{"site":3,"num_io":0,"num_cpu":0}`,
		`{"site":0,"num_io":-1,"num_cpu":0}`,
		`{"site":0,"num_io":0,"num_cpu":0,"cpu_work":-1}`,
		`not json`,
	}
	for _, body := range badReports {
		resp, out := postJSON(t, ts.URL+"/v1/report", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("report %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
	st := srv.Stats()
	if int(st.Malformed) != len(cases) {
		t.Errorf("malformed = %d, want %d", st.Malformed, len(cases))
	}
	if int(st.BadReports) != len(badReports) {
		t.Errorf("bad reports = %d, want %d", st.BadReports, len(badReports))
	}
	// Method misuse.
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET decide: %v %v, want 405", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestServerRejectsOversizedBody holds both handlers to the body bound:
// a valid request padded to maxBodyBytes is served, one byte more is a
// 400 that closes the connection.
func TestServerRejectsOversizedBody(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for _, tc := range []struct {
		path, body string
		ok         int
	}{
		{"/v1/report", `{"site":0}`, http.StatusNoContent},
		{"/v1/decide", `{"class":0,"home":0}`, http.StatusOK},
	} {
		pad := maxBodyBytes - len(tc.body)
		resp, out := postJSON(t, ts.URL+tc.path, tc.body+strings.Repeat(" ", pad))
		if resp.StatusCode != tc.ok {
			t.Errorf("%s at the bound: status %d (%s), want %d", tc.path, resp.StatusCode, out, tc.ok)
		}
		resp, out = postJSON(t, ts.URL+tc.path, tc.body+strings.Repeat(" ", pad+1))
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(out, []byte("too large")) {
			t.Errorf("%s past the bound: status %d (%s), want 400 too large", tc.path, resp.StatusCode, out)
		}
		if !resp.Close {
			t.Errorf("%s past the bound: connection kept open", tc.path)
		}
	}
	if st := srv.Stats(); st.Malformed != 1 || st.BadReports != 1 {
		t.Errorf("malformed = %d, bad reports = %d, want 1 and 1", st.Malformed, st.BadReports)
	}
}

func TestServerDeadlineExpiresRequest(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	// A deadline far below the scheduling quantum expires before the
	// decision loop can claim the request.
	resp, body := postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0,"deadline_ms":0.000001}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("tiny deadline: status %d (%s), want 504", resp.StatusCode, body)
	}
	st := srv.Stats()
	if st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
}

// decideAsync serves one decide on the handler in the background and
// delivers the finished recorder.
func decideAsync(srv *Server, r *http.Request) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		done <- rec
	}()
	return done
}

func decideRequest(body string) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body))
}

// waitQueueDepth waits until n decides wait for the decision token.
func waitQueueDepth(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().QueueDepth != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", srv.Stats().QueueDepth, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// committed sums the table's committed queries over every site: it
// moves only when Core.Decide commits a decision.
func committed(srv *Server) int {
	n := 0
	for s := 0; s < srv.cfg.NumSites; s++ {
		n += srv.core.Table().Committed(s)
	}
	return n
}

// TestServerBackpressureSheds holds the decision token: QueueBound
// decides wait for it, the next is shed at once with 429 and
// Retry-After, and the waiters are decided once the token is free.
func TestServerBackpressureSheds(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		c.QueueBound = 2
		c.DefaultDeadline = 5 * time.Second
		c.MaxDeadline = 5 * time.Second
	})
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	srv.token <- struct{}{}
	var waiters []<-chan *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		waiters = append(waiters, decideAsync(srv, decideRequest(`{"class":0,"home":0}`)))
		waitQueueDepth(t, srv, i+1)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, decideRequest(`{"class":0,"home":0}`))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("decide beyond QueueBound: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-srv.token
	for _, w := range waiters {
		if rec := <-w; rec.Code != http.StatusOK {
			t.Errorf("waiter: status %d (%s), want 200", rec.Code, rec.Body)
		}
	}
	st := srv.Stats()
	if st.Shed != 1 || st.Decided != 2 || st.Requests != 3 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServerWaiterExpiresWithoutDeciding: a decide whose deadline
// passes while another holds the token answers 504, counts once as
// Expired and never reaches Core.Decide; so does one whose deadline has
// passed by the time it takes a free token.
func TestServerWaiterExpiresWithoutDeciding(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	srv.token <- struct{}{}
	rec := <-decideAsync(srv, decideRequest(`{"class":0,"home":0,"deadline_ms":20}`))
	<-srv.token
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("waiter past its deadline: status %d, want 504", rec.Code)
	}
	rec = <-decideAsync(srv, decideRequest(`{"class":0,"home":0,"deadline_ms":0.000001}`))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline passed at a free token: status %d, want 504", rec.Code)
	}
	st := srv.Stats()
	if st.Expired != 2 || st.Requests != 2 || st.LatencyByOutcome["expired"].Count != 2 {
		t.Errorf("stats = %+v", st)
	}
	if n := committed(srv); n != 0 {
		t.Errorf("expired decides committed %d queries, want 0", n)
	}
}

// TestServerHandlerDoesNotHangWhenWaiterCancelled: a decide waiting for
// the token whose request context is cancelled (the client went away)
// answers 504 at once instead of waiting out its deadline, and is
// never decided.
func TestServerHandlerDoesNotHangWhenWaiterCancelled(t *testing.T) {
	srv, ts, _ := startServer(t, func(c *Config) {
		// Long deadlines so only the cancel can wake the waiter.
		c.DefaultDeadline = 5 * time.Second
		c.MaxDeadline = 5 * time.Second
	})
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	srv.token <- struct{}{}
	defer func() { <-srv.token }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := decideAsync(srv, decideRequest(`{"class":0,"home":0}`).WithContext(ctx))
	waitQueueDepth(t, srv, 1)
	cancel()
	select {
	case rec := <-done:
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("cancelled waiter: status %d, want 504", rec.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter hung")
	}
	if st := srv.Stats(); st.Expired != 1 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v", st)
	}
	if n := committed(srv); n != 0 {
		t.Errorf("cancelled decide committed %d queries, want 0", n)
	}
}

// TestServerShutdownEnqueueRaceIsSafe hammers handlers against Shutdown:
// a handler that passes the draining check just before the queue closes
// must get a clean drain refusal, never a send on a closed channel.
func TestServerShutdownEnqueueRaceIsSafe(t *testing.T) {
	for i := 0; i < 25; i++ {
		cfg := Default()
		cfg.NumSites = 2
		cfg.Policy = policy.BNQ
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 20; k++ {
					rec := httptest.NewRecorder()
					srv.handleDecide(rec, httptest.NewRequest(http.MethodPost, "/v1/decide",
						strings.NewReader(`{"class":0,"home":0}`)))
					switch rec.Code {
					case http.StatusOK, http.StatusServiceUnavailable,
						http.StatusTooManyRequests, http.StatusGatewayTimeout:
					default:
						t.Errorf("unexpected status %d", rec.Code)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

func TestServerDrainAndShutdown(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	// One decide is in flight, waiting for the token, when drain begins.
	srv.token <- struct{}{}
	inflight := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(inflight, decideRequest(`{"class":0,"home":0}`))
		close(served)
	}()
	waitQueueDepth(t, srv, 1)
	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, _ = postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide while draining: status %d, want 503", resp.StatusCode)
	}
	st := srv.Stats()
	if st.Draining != 1 {
		t.Errorf("draining = %d, want 1", st.Draining)
	}
	// Shutdown waits for the in-flight decide, bounded by its context.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned with a decide in flight")
	}
	<-srv.token
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Shutdown returned, so the in-flight decide has answered: its
	// response was written before Shutdown could return.
	var dr DecideResponse
	if err := json.Unmarshal(inflight.Body.Bytes(), &dr); err != nil || inflight.Code != http.StatusOK {
		t.Errorf("in-flight decide after Shutdown: status %d, body %q", inflight.Code, inflight.Body)
	}
	<-served
	// Shutdown is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerStatsConservation drives a mixed request stream and checks
// the resolution counters account for every request exactly once.
func TestServerStatsConservation(t *testing.T) {
	srv, ts, _ := startServer(t, nil)
	for s := 0; s < 3; s++ {
		sendReport(t, ts.URL, s, 0, 0, 0)
	}
	for i := 0; i < 20; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/decide", fmt.Sprintf(`{"class":%d,"home":%d}`, i%2, i%3))
		resp.Body.Close()
	}
	postJSON(t, ts.URL+"/v1/decide", `malformed`)
	postJSON(t, ts.URL+"/v1/decide", `{"class":0,"home":0,"deadline_ms":0.000001}`)
	st := srv.Stats()
	resolved := st.Decided + st.Fallback + st.NoCapacity + st.Unavailable +
		st.Shed + st.Expired + st.Malformed + st.Draining
	if st.Requests != resolved {
		t.Errorf("conservation violated: %d requests, %d resolved (%+v)", st.Requests, resolved, st)
	}
	if st.Requests != 22 {
		t.Errorf("requests = %d, want 22", st.Requests)
	}
}

// TestServerConcurrentDecides runs decides from 8 goroutines against one
// server while reports arrive. The counters must conserve and Decided
// must equal the policy decisions the clients received; under -race,
// any overlap of two Core.Decide calls is reported on the core's
// unsynchronized policy state.
func TestServerConcurrentDecides(t *testing.T) {
	srv, _, _ := startServer(t, func(c *Config) {
		c.DefaultDeadline = 5 * time.Second
		c.MaxDeadline = 5 * time.Second
	})
	h := srv.Handler()
	report := func(site int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report",
			strings.NewReader(fmt.Sprintf(`{"site":%d,"num_io":%d,"num_cpu":1}`, site, site))))
		if rec.Code != http.StatusNoContent {
			t.Errorf("report: status %d", rec.Code)
		}
	}
	for s := 0; s < 3; s++ {
		report(s)
	}

	const workers, perWorker = 8, 200
	stop := make(chan struct{})
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				report(i % 3)
			}
		}
	}()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		policyOKs  uint64
		fallbackOK uint64
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pol, fb uint64
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, decideRequest(fmt.Sprintf(`{"class":%d,"home":%d}`, i%2, (g+i)%3)))
				if rec.Code != http.StatusOK {
					continue
				}
				var dr DecideResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
					t.Errorf("decide answer %q: %v", rec.Body, err)
					continue
				}
				if dr.Mode == "policy" {
					pol++
				} else {
					fb++
				}
			}
			mu.Lock()
			policyOKs += pol
			fallbackOK += fb
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(stop)
	<-reporterDone

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	resolved := st.Decided + st.Fallback + st.NoCapacity + st.Unavailable +
		st.Shed + st.Expired + st.Malformed + st.Draining
	if st.Requests != workers*perWorker || st.Requests != resolved {
		t.Errorf("conservation violated: %d requests, %d resolved (%+v)", st.Requests, resolved, st)
	}
	if st.Decided != policyOKs || st.Fallback != fallbackOK {
		t.Errorf("server decided %d (fallback %d), clients got %d (fallback %d)",
			st.Decided, st.Fallback, policyOKs, fallbackOK)
	}
	if st.Decided == 0 || st.LateDecides != 0 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReportCountsAboveBoundRejected pins that a report count near
// math.MaxInt cannot wrap the table's sums negative. Accepted, such a
// report made site 0 read as the least loaded site with a negative
// committed count, so BNQ routed every decide there and the admission
// cap never bound. The handler answers 400, Core.Report refuses it, and
// the decides that follow still see the last accepted reports.
func TestReportCountsAboveBoundRejected(t *testing.T) {
	cfg := Default()
	cfg.Policy = policy.BNQ
	cfg.AdmitMax = 100
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for s := 0; s < cfg.NumSites; s++ {
		serveBody(t, h, "/v1/report", []byte(fmt.Sprintf(`{"site":%d,"num_io":1}`, s)), http.StatusNoContent)
	}
	for _, c := range [][2]int{{1, math.MaxInt}, {maxCount + 1, 0}, {math.MaxInt, 1}} {
		if err := srv.Core().Report(0, c[0], c[1], 0, 0, 0, 0, time.Now()); err == nil {
			t.Errorf("Core.Report accepted counts %v", c)
		}
	}
	for _, body := range []string{
		`{"site":0,"num_io":1,"num_cpu":9223372036854775807}`,
		`{"site":0,"num_io":1000000001}`,
		`{"site":0,"num_io":9223372036854775807,"num_cpu":1}`,
	} {
		serveBody(t, h, "/v1/report", []byte(body), http.StatusBadRequest)
	}

	const decides = 20
	perSite := make([]int, cfg.NumSites)
	for i := 0; i < decides; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(`{"class":0,"home":0}`)))
		var dr DecideResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &dr) != nil {
			t.Fatalf("decide %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		perSite[dr.Site]++
	}
	// Every site reported one query, so BNQ spreads the decides evenly.
	fair := (decides + cfg.NumSites - 1) / cfg.NumSites
	for s, n := range perSite {
		if n > fair {
			t.Errorf("site %d got %d of %d decides, want at most %d: %v", s, n, decides, fair, perSite)
		}
		if c := srv.Core().Table().Committed(s); c < 0 || c > cfg.AdmitMax {
			t.Errorf("site %d committed %d, want within [0, %d]", s, c, cfg.AdmitMax)
		}
	}
}
