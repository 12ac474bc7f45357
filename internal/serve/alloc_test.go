package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dqalloc/internal/race"
)

// handlerServer is a server whose sites have all reported, so every
// decide on the handler is a policy decision.
func handlerServer(tb testing.TB) *Server {
	tb.Helper()
	cfg := Default()
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	for s := 0; s < cfg.NumSites; s++ {
		serveBody(tb, srv.Handler(), "/v1/report", []byte(fmt.Sprintf(`{"site":%d}`, s)), http.StatusNoContent)
	}
	return srv
}

// serveBody serves one POST in process, as an HTTP server would hand it
// to the handler, and checks its status.
func serveBody(tb testing.TB, h http.Handler, path string, body []byte, want int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != want {
		tb.Fatalf("%s: status %d (%s), want %d", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), want)
	}
}

var (
	decideBody = []byte(`{"class":1,"home":2}`)
	reportBody = []byte(`{"site":2,"num_io":1,"num_cpu":2}`)
)

// BenchmarkServerDecide times one decide and one report through the
// whole handler tree, the server's share of a serve-workload op.
func BenchmarkServerDecide(b *testing.B) {
	h := handlerServer(b).Handler()
	b.ReportAllocs()
	for b.Loop() {
		serveBody(b, h, "/v1/decide", decideBody, http.StatusOK)
		serveBody(b, h, "/v1/report", reportBody, http.StatusNoContent)
	}
}

// decideHandlerAllocs is the allocation count of one uncontended decide
// on the handler, the request and recorder included. All of it is http
// plumbing, one of it the http.MaxBytesReader that escapes into
// bytes.Buffer.ReadFrom: the decode and the response encoding allocate
// nothing, and there is no per-request context, timer or channel.
const decideHandlerAllocs = 22

// reportHandlerAllocs is the allocation count of one report on the
// handler, the request and recorder included; it too is all http
// plumbing.
const reportHandlerAllocs = 16

// TestDecideHandlerAllocs pins what one uncontended decide allocates.
func TestDecideHandlerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	h := handlerServer(t).Handler()
	got := testing.AllocsPerRun(200, func() {
		serveBody(t, h, "/v1/decide", decideBody, http.StatusOK)
	})
	if got != decideHandlerAllocs {
		t.Errorf("decide handler allocates %v per request, want %d", got, decideHandlerAllocs)
	}
}

// TestReportHandlerAllocs pins what one report allocates.
func TestReportHandlerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	h := handlerServer(t).Handler()
	got := testing.AllocsPerRun(200, func() {
		serveBody(t, h, "/v1/report", reportBody, http.StatusNoContent)
	})
	if got != reportHandlerAllocs {
		t.Errorf("report handler allocates %v per request, want %d", got, reportHandlerAllocs)
	}
}
