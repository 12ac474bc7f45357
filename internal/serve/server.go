package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dqalloc/internal/stats"
	"dqalloc/internal/workload"
)

// Stats is a point-in-time snapshot of the service counters. The
// decide counters conserve: Requests = Decided + Fallback + NoCapacity
// + Unavailable + Shed + Expired + Malformed + Draining.
type Stats struct {
	Requests    uint64 `json:"requests"`
	Decided     uint64 `json:"decided"`
	Fallback    uint64 `json:"fallback"`
	NoCapacity  uint64 `json:"no_capacity"`
	Unavailable uint64 `json:"unavailable"`
	Shed        uint64 `json:"shed"`
	Expired     uint64 `json:"expired"`
	Malformed   uint64 `json:"malformed"`
	Draining    uint64 `json:"draining"`

	Reports    uint64 `json:"reports"`
	BadReports uint64 `json:"bad_reports"`

	// LateDecides counts decisions committed to the table that no client
	// received. It is structurally 0: the goroutine that decides is the
	// one that answers, and a decide expires only before Core.Decide
	// runs. It stays for the clients that read it.
	LateDecides uint64 `json:"late_decides"`

	BreakerOpens uint64   `json:"breaker_opens"`
	Breakers     []string `json:"breakers"`

	// SlowProbations counts closed→half-open breaker demotions driven by
	// latency feedback (gray-failure detections).
	SlowProbations uint64 `json:"slow_probations"`

	// QueueDepth is the number of decides waiting for the decision token.
	QueueDepth int `json:"queue_depth"`

	// Decision latency quantiles in microseconds (decoded → resolved),
	// from a log-bucketed histogram (≤2% relative error).
	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP99US float64 `json:"latency_p99_us"`

	// LatencyByOutcome breaks the decision latency down per resolution
	// outcome, so a tail inflated by expiries is distinguishable from
	// slow successful decisions. Only outcomes observed at least once
	// appear.
	LatencyByOutcome map[string]LatencyQuantiles `json:"latency_by_outcome,omitempty"`
}

// LatencyQuantiles summarizes one outcome's decision-latency
// distribution in microseconds.
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
}

// histogram outcome lanes; each resolution path records into exactly one.
const (
	laneDecided = iota
	laneFallback
	laneNoCapacity
	laneUnavailable
	laneExpired
	numLanes
)

// laneNames maps histogram lanes to their stats keys.
var laneNames = [numLanes]string{
	"decided", "fallback", "no_capacity", "unavailable", "expired",
}

// Server is the dqserve HTTP layer. Each decide handler runs Core.Decide
// itself while it holds the one-slot decision token, so decisions are
// serial, in arrival order, and every request resolves exactly once on
// the goroutine that answers it.
type Server struct {
	cfg   Config
	core  *Core
	clock func() time.Time
	mux   *http.ServeMux

	// token is the decision token: a decide holds it by filling the one
	// buffer slot and hands it back by draining it. A blocked sender
	// takes a freed slot in FIFO order.
	token    chan struct{}
	waiting  atomic.Int64 // decides blocked on the token
	active   atomic.Int64 // decides admitted and not yet answered
	draining atomic.Bool
	idle     chan struct{} // closed once draining with no active decide
	idleOnce sync.Once

	tr transport // Serve's listeners and connections

	mu    sync.Mutex
	st    Stats
	hist  *stats.LogHistogram
	lanes [numLanes]*stats.LogHistogram
}

// NewServer builds the service. It starts no goroutine; Shutdown (or
// Close) drains it.
func NewServer(cfg Config) (*Server, error) {
	core, err := NewCore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		core:  core,
		clock: cfg.clock(),
		token: make(chan struct{}, 1),
		idle:  make(chan struct{}),
	}
	s.initLatencyHists()
	s.tr.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/report", s.handleReport)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// Handler returns the HTTP handler tree, the one Serve runs. It serves
// in process (httptest, embedders) or under another HTTP server.
func (s *Server) Handler() http.Handler { return s.mux }

// Core exposes the decision engine (report ingestion in embedders).
func (s *Server) Core() *Core { return s.core }

// BeginDrain flips the server into draining: readiness reports 503 and
// new decide requests are refused, while admitted decides still
// complete. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.active.Load() == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// Draining reports whether BeginDrain (or Shutdown) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: it begins draining, closes Serve's
// listeners and idle connections at once, lets each request in progress
// answer with "Connection: close", and returns once every connection has
// closed and every admitted decide has answered. Idempotent; the context
// bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.tr.close()
	for _, done := range [...]chan struct{}{s.tr.done, s.idle} {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown: %w", ctx.Err())
		}
	}
	return nil
}

// Close is Shutdown with a short grace period, for tests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// admit counts a decide as active unless the server is draining. Every
// admitted decide calls leave once it has answered. The count is raised
// before draining is read and BeginDrain sets draining before it reads
// the count, so one of the two sees the other: a decide admitted while
// Shutdown waits always finishes before Shutdown returns.
func (s *Server) admit() bool {
	s.active.Add(1)
	if s.draining.Load() {
		s.leave()
		return false
	}
	return true
}

// leave ends an admitted decide; the last one out of a draining server
// releases Shutdown.
func (s *Server) leave() {
	if s.active.Add(-1) == 0 && s.draining.Load() {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// acquire results: the token is held, or the decide resolves without it.
const (
	tokenHeld = iota
	tokenShed
	tokenExpired
)

// acquire takes the decision token for a decide due by the real-clock
// time due. A free token is taken without blocking or arming a timer.
// Otherwise the decide waits its turn, unless QueueBound decides already
// wait (shed) or its deadline or request context ends first (expired).
// A decide that holds the token past its deadline hands it back
// undecided and is expired too.
func (s *Server) acquire(ctx context.Context, due time.Time) int {
	select {
	case s.token <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.cfg.QueueBound) {
			s.waiting.Add(-1)
			return tokenShed
		}
		timer := time.NewTimer(time.Until(due))
		held := false
		select {
		case s.token <- struct{}{}:
			held = true
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		s.waiting.Add(-1)
		if !held {
			return tokenExpired
		}
	}
	if ctx.Err() != nil || !time.Now().Before(due) {
		<-s.token
		return tokenExpired
	}
	return tokenHeld
}

// decide runs Core.Decide and hands the token back, even if it panics.
func (s *Server) decide(q *workload.Query) (int, Outcome) {
	defer func() { <-s.token }()
	return s.core.Decide(q, s.clock())
}

// initLatencyHists builds the global and per-outcome latency histograms:
// 1µs–60s decision latencies at ≤2% relative error.
func (s *Server) initLatencyHists() {
	s.hist = stats.NewLogHistogram(1, 60e6, 0.02)
	for i := range s.lanes {
		s.lanes[i] = stats.NewLogHistogram(1, 60e6, 0.02)
	}
}

// note bumps one resolution counter and records the latency of a
// decide decoded at start, globally and in the outcome's lane.
func (s *Server) note(counter *uint64, lane int, start time.Time) {
	lat := s.clock().Sub(start)
	us := float64(lat.Microseconds()) + 1 // keep zero out of the log buckets
	s.mu.Lock()
	*counter++
	s.hist.Add(us)
	s.lanes[lane].Add(us)
	s.mu.Unlock()
}

// bump increments one counter that records no latency.
func (s *Server) bump(counter *uint64) {
	s.mu.Lock()
	*counter++
	s.mu.Unlock()
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// bufPool recycles the buffers the decide and report handlers read
// request bodies into and encode decide responses in. A new buffer has
// room for a request body plus the 512 bytes bytes.Buffer.ReadFrom asks
// for before each read, so steady-state reads do not grow it.
var bufPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 1024)) }}

// readBody reads a bounded request body into buf, replacing its content.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return err
}

// writeDecide writes a 200 decide response, the bytes writeJSON would
// write, encoding it in buf.
func writeDecide(w http.ResponseWriter, buf *bytes.Buffer, resp DecideResponse) {
	buf.Reset()
	b := AppendDecideResponse(buf.AvailableBuffer(), resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.bump(&s.st.Requests)
	if !s.admit() {
		s.bump(&s.st.Draining)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.leave()
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	if err := readBody(w, r, buf); err != nil {
		s.bump(&s.st.Malformed)
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	dr, err := DecodeDecideRequest(buf.Bytes(), len(s.cfg.Classes), s.cfg.NumSites)
	if err != nil {
		s.bump(&s.st.Malformed)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if dr.DeadlineMS > 0 {
		deadline = time.Duration(dr.DeadlineMS * float64(time.Millisecond))
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	start := s.clock()
	due := time.Now().Add(deadline)
	q := workload.Query{Class: dr.Class, Home: dr.Home, Exec: dr.Home,
		EstReads: dr.EstReads, EstPageCPU: dr.EstPageCPU}
	s.cfg.classMeans(&q)

	switch s.acquire(r.Context(), due) {
	case tokenShed:
		// Backpressure: QueueBound decides already wait; shed now
		// rather than let latency collapse for everyone.
		s.bump(&s.st.Shed)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "decision queue full")
		return
	case tokenExpired:
		s.note(&s.st.Expired, laneExpired, start)
		writeError(w, http.StatusGatewayTimeout, "decision deadline exceeded")
		return
	}
	site, out := s.decide(&q)
	switch out {
	case OutcomeDecided:
		s.note(&s.st.Decided, laneDecided, start)
		writeDecide(w, buf, DecideResponse{Site: site, Mode: "policy", Policy: s.core.Policy()})
	case OutcomeFallback:
		s.note(&s.st.Fallback, laneFallback, start)
		writeDecide(w, buf, DecideResponse{Site: site, Mode: "fallback", Policy: s.core.Policy()})
	case OutcomeNoCapacity:
		s.note(&s.st.NoCapacity, laneNoCapacity, start)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all candidate sites at admission cap")
	default: // OutcomeNoSites
		s.note(&s.st.Unavailable, laneUnavailable, start)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no routable sites")
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	if err := readBody(w, r, buf); err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	rep, err := DecodeReportRequest(buf.Bytes(), s.cfg.NumSites)
	if err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.core.Report(rep.Site, rep.NumIO, rep.NumCPU, rep.CPUWork, rep.IOWork, rep.Rejected, rep.LatencyMS, s.clock()); err != nil {
		s.bump(&s.st.BadReports)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.bump(&s.st.Reports)
	w.WriteHeader(http.StatusNoContent)
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.st
	st.LatencyP50US = s.hist.Quantile(0.5)
	st.LatencyP99US = s.hist.Quantile(0.99)
	for lane, h := range s.lanes {
		if h.Count() == 0 {
			continue
		}
		if st.LatencyByOutcome == nil {
			st.LatencyByOutcome = make(map[string]LatencyQuantiles, numLanes)
		}
		st.LatencyByOutcome[laneNames[lane]] = LatencyQuantiles{
			Count: h.Count(),
			P50US: h.Quantile(0.5),
			P99US: h.Quantile(0.99),
		}
	}
	s.mu.Unlock()
	st.Breakers = s.core.Breakers()
	st.BreakerOpens = s.core.BreakerOpens()
	st.SlowProbations = s.core.SlowProbations()
	st.QueueDepth = int(s.waiting.Load())
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case !s.core.Ready(s.clock()):
		writeError(w, http.StatusServiceUnavailable, "no live sites (no fresh reports)")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
