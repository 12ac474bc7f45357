package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dqalloc/internal/policy"
)

// newTestServer builds a three-site BNQ server on a fake clock, as
// startServer does, without wrapping it in httptest.
func newTestServer(tb testing.TB, mutate func(*Config)) *Server {
	tb.Helper()
	cfg := Default()
	cfg.NumSites = 3
	cfg.Policy = policy.BNQ
	cfg.Clock = newFakeClock().Now
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv
}

// listen runs srv.Serve on a loopback port and returns its address. The
// cleanup shuts the server down and checks that Serve returned.
func listen(tb testing.TB, srv *Server) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		if err := srv.Close(); err != nil {
			tb.Errorf("close: %v", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			tb.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// dial opens a raw connection with a deadline for the whole exchange.
func dial(tb testing.TB, addr string) net.Conn {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	tb.Cleanup(func() { nc.Close() })
	return nc
}

// answer is what the differential test compares of one response.
type answer struct {
	Status                              int
	ContentType, Allow, RetryAfter, Loc string
	Body                                string
}

func answerOf(status int, h http.Header, body []byte) answer {
	return answer{status, h.Get("Content-Type"), h.Get("Allow"), h.Get("Retry-After"), h.Get("Location"), string(body)}
}

// rawRequest formats one request with a Content-Length body.
func rawRequest(method, target, body string, extra ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: dqserve.test\r\nUser-Agent: conn-test\r\n", method, target)
	for _, h := range extra {
		b.WriteString(h + "\r\n")
	}
	if body != "" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	return b.String() + "\r\n" + body
}

// TestServeMatchesHandler is the differential framing test: a corpus of
// raw requests goes over a socket to Serve and, parsed by net/http,
// through Handler() on a recorder, each to its own server fed the same
// sequence. Status, Content-Type, Allow, Retry-After, Location and body
// must match.
func TestServeMatchesHandler(t *testing.T) {
	decide := `{"class":1,"home":2}`
	report := `{"site":2,"num_io":1,"num_cpu":2}`
	type exchange struct {
		name string
		raw  string // one or more requests, written at once
		// continued is sent after the 100 Continue answer.
		continued string
		// closes: the server closes the connection after the answers.
		closes bool
	}
	corpus := []exchange{}
	for s := 0; s < 3; s++ {
		corpus = append(corpus, exchange{name: "report", raw: rawRequest("POST", "/v1/report", fmt.Sprintf(`{"site":%d}`, s))})
	}
	for _, path := range []string{"/v1/decide", "/v1/report", "/v1/stats", "/healthz", "/readyz"} {
		body := map[string]string{"/v1/decide": decide, "/v1/report": report}[path]
		corpus = append(corpus,
			exchange{name: "GET " + path, raw: rawRequest("GET", path, "")},
			exchange{name: "POST " + path, raw: rawRequest("POST", path, body)})
	}
	corpus = append(corpus,
		exchange{name: "malformed decide", raw: rawRequest("POST", "/v1/decide", `{"class":`)},
		exchange{name: "decide home out of range", raw: rawRequest("POST", "/v1/decide", `{"class":0,"home":99}`)},
		exchange{name: "malformed report", raw: rawRequest("POST", "/v1/report", `{"site":"x"}`)},
		exchange{name: "oversized decide", raw: rawRequest("POST", "/v1/decide", strings.Repeat(" ", maxBodyBytes+1))},
		exchange{name: "oversized report", raw: rawRequest("POST", "/v1/report", strings.Repeat("9", 2*maxBodyBytes))},
		exchange{name: "empty decide", raw: rawRequest("POST", "/v1/decide", "")},
		exchange{name: "unknown path", raw: rawRequest("GET", "/v2/decide", "")},
		exchange{name: "query string", raw: rawRequest("GET", "/healthz?verbose=1&x=%20", "")},
		exchange{name: "decide with query", raw: rawRequest("POST", "/v1/decide?trace=1", decide)},
		exchange{name: "escaped path", raw: rawRequest("GET", "/heal%74hz", "")},
		exchange{name: "unclean path", raw: rawRequest("GET", "/v1//stats", "")},
		exchange{name: "absolute form", raw: rawRequest("GET", "http://dqserve.test/healthz", "")},
		exchange{name: "asterisk", raw: rawRequest("OPTIONS", "*", ""), closes: true},
		exchange{name: "PUT decide", raw: rawRequest("PUT", "/v1/decide", decide)},
		exchange{name: "connection close", raw: rawRequest("GET", "/healthz", "", "Connection: close"), closes: true},
		exchange{name: "http/1.0", raw: "GET /readyz HTTP/1.0\r\n\r\n", closes: true},
		exchange{name: "http/1.0 decide", raw: fmt.Sprintf("POST /v1/decide HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s", len(decide), decide), closes: true},
		exchange{name: "pipelined decide+report",
			raw: rawRequest("POST", "/v1/decide", decide) + rawRequest("POST", "/v1/report", report)},
		exchange{name: "pipelined then close",
			raw: rawRequest("GET", "/healthz", "") + rawRequest("POST", "/v1/decide", decide, "Connection: close"), closes: true},
		exchange{name: "expect 100-continue",
			raw:       strings.TrimSuffix(rawRequest("POST", "/v1/decide", decide, "Expect: 100-continue"), decide),
			continued: decide},
		exchange{name: "stats after all", raw: rawRequest("GET", "/v1/stats", "")},
	)

	wire := newTestServer(t, nil)
	addr := listen(t, wire)
	ref := newTestServer(t, nil)
	for _, ex := range corpus {
		var want []answer
		br := bufio.NewReader(strings.NewReader(ex.raw + ex.continued))
		var methods []string
		for {
			req, err := http.ReadRequest(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: reference parse: %.80v", ex.name, err)
			}
			rec := httptest.NewRecorder()
			ref.Handler().ServeHTTP(rec, req)
			io.Copy(io.Discard, req.Body) // to reach the next request
			want = append(want, answerOf(rec.Code, rec.Header(), rec.Body.Bytes()))
			methods = append(methods, req.Method)
		}

		nc := dial(t, addr)
		io.WriteString(nc, ex.raw)
		cr := bufio.NewReader(nc)
		if ex.continued != "" {
			resp, err := http.ReadResponse(cr, nil)
			if err != nil || resp.StatusCode != http.StatusContinue {
				t.Fatalf("%s: interim answer %v, %v; want 100 Continue", ex.name, resp, err)
			}
			io.WriteString(nc, ex.continued)
		}
		for i, w := range want {
			resp, err := http.ReadResponse(cr, &http.Request{Method: methods[i]})
			if err != nil {
				t.Fatalf("%s: answer %d: %v", ex.name, i, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: answer %d body: %v", ex.name, i, err)
			}
			if got := answerOf(resp.StatusCode, resp.Header, body); got != w {
				t.Errorf("%s: answer %d differs:\n wire    %+v\n handler %+v", ex.name, i, got, w)
			}
			if resp.Header.Get("Date") == "" {
				t.Errorf("%s: answer %d has no Date", ex.name, i)
			}
		}
		if ex.closes {
			expectClosed(t, ex.name, cr)
		}
	}
	if got, want := wire.Stats(), ref.Stats(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stats differ:\n wire    %+v\n handler %+v", got, want)
	}
}

// expectClosed checks that the server closed the connection: nothing
// more arrives before EOF.
func expectClosed(t *testing.T, name string, r io.Reader) {
	t.Helper()
	rest, err := io.ReadAll(r)
	if err != nil || len(rest) > 0 {
		t.Errorf("%s: connection not closed: %q, %v", name, rest, err)
	}
}

// TestServeRefusesFraming: each framing rule Serve does not serve gets
// its status, then the connection closes.
func TestServeRefusesFraming(t *testing.T) {
	addr := listen(t, newTestServer(t, nil))
	for _, tc := range []struct {
		name, raw string
		want      int
	}{
		{"no host", "GET /healthz HTTP/1.1\r\n\r\n", http.StatusBadRequest},
		{"two hosts", "GET /healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", http.StatusBadRequest},
		{"malformed length", "POST /v1/report HTTP/1.1\r\nHost: a\r\nContent-Length: 1x\r\n\r\n1x", http.StatusBadRequest},
		{"signed length", "POST /v1/report HTTP/1.1\r\nHost: a\r\nContent-Length: +2\r\n\r\n{}", http.StatusBadRequest},
		{"negative length", "POST /v1/report HTTP/1.1\r\nHost: a\r\nContent-Length: -1\r\n\r\n", http.StatusBadRequest},
		{"conflicting lengths", "POST /v1/report HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}", http.StatusBadRequest},
		{"chunked", "POST /v1/report HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", http.StatusLengthRequired},
		{"identity coding", "POST /v1/report HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\n{}", http.StatusLengthRequired},
		{"header too large", "GET /healthz HTTP/1.1\r\nHost: a\r\nX-Pad: " + strings.Repeat("p", connReadBuf) + "\r\n\r\n", http.StatusRequestHeaderFieldsTooLarge},
		{"http/2.0", "GET /healthz HTTP/2.0\r\nHost: a\r\n\r\n", http.StatusHTTPVersionNotSupported},
		{"garbage line", "HELLO\r\n\r\n", http.StatusBadRequest},
		{"lowercase proto", "GET /healthz http/1.1\r\nHost: a\r\n\r\n", http.StatusBadRequest},
		{"folded header", "GET /healthz HTTP/1.1\r\nHost: a\r\nX-A: b\r\n c\r\n\r\n", http.StatusBadRequest},
		{"space before colon", "GET /healthz HTTP/1.1\r\nHost : a\r\n\r\n", http.StatusBadRequest},
		{"control byte", "GET /healthz HTTP/1.1\r\nHost: a\r\nX-A: b\x01c\r\n\r\n", http.StatusBadRequest},
		{"unknown expectation", "POST /v1/report HTTP/1.1\r\nHost: a\r\nExpect: 200-ok\r\nContent-Length: 2\r\n\r\n{}", http.StatusExpectationFailed},
		{"bad target", "GET /a\x7fb HTTP/1.1\r\nHost: a\r\n\r\n", http.StatusBadRequest},
	} {
		nc := dial(t, addr)
		io.WriteString(nc, tc.raw)
		br := bufio.NewReader(nc)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.ReadAll(resp.Body)
		if resp.StatusCode != tc.want || !resp.Close {
			t.Errorf("%s: status %d, close %v; want %d and close", tc.name, resp.StatusCode, resp.Close, tc.want)
		}
		expectClosed(t, tc.name, br)
	}
}

// TestServeClosesStalledHeader: a client that stops mid-header is cut off
// at the header deadline.
func TestServeClosesStalledHeader(t *testing.T) {
	t.Parallel()
	addr := listen(t, newTestServer(t, nil))
	nc := dial(t, addr)
	nc.SetDeadline(time.Now().Add(headerTimeout + 2*time.Second))
	start := time.Now()
	io.WriteString(nc, "GET /healthz HTTP/1.1\r\nHost: a\r\n")
	rest, err := io.ReadAll(nc)
	if err != nil || len(rest) > 0 {
		t.Fatalf("stalled header: read %q, %v; want a plain close", rest, err)
	}
	if d := time.Since(start); d < headerTimeout-time.Second || d > headerTimeout+time.Second {
		t.Errorf("closed after %v, want about %v", d, headerTimeout)
	}
}

// TestServeWaiterHangUpCommitsNothing is the socket-level twin of
// TestServerHandlerDoesNotHangWhenWaiterCancelled: a client that closes
// its connection while its decide waits for the token gets its decide
// expired at once, and no decision is committed.
func TestServeWaiterHangUpCommitsNothing(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		// Long deadlines so only the hang-up can wake the waiter.
		c.DefaultDeadline = 5 * time.Second
		c.MaxDeadline = 5 * time.Second
	})
	addr := listen(t, srv)
	for s := 0; s < 3; s++ {
		serveBody(t, srv.Handler(), "/v1/report", []byte(fmt.Sprintf(`{"site":%d}`, s)), http.StatusNoContent)
	}
	srv.token <- struct{}{}
	released := false
	defer func() {
		if !released {
			<-srv.token
		}
	}()
	nc := dial(t, addr)
	io.WriteString(nc, rawRequest("POST", "/v1/decide", `{"class":0,"home":0}`))
	waitQueueDepth(t, srv, 1)
	nc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for st := srv.Stats(); st.Expired != 1 || st.QueueDepth != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("hung-up waiter not expired: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	<-srv.token
	released = true
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Decided != 0 || st.Requests != 1 {
		t.Errorf("stats = %+v", st)
	}
	if n := committed(srv); n != 0 {
		t.Errorf("hung-up decide committed %d queries, want 0", n)
	}
}

// statusLine is a well-formed HTTP/1.1 status line.
var statusLine = regexp.MustCompile(`^HTTP/1\.1 [1-9][0-9][0-9] [ -~]*$`)

// checkAnswers splits what a connection sent back into answers and
// checks each starts with a well-formed status line and carries the body
// its Content-Length declares. An answer to HEAD sends no body, whatever
// length it declares; one followed directly by the next status line, or
// by the end, is taken as such.
func checkAnswers(t *testing.T, out []byte) {
	for n := 0; len(out) > 0; n++ {
		line, rest, ok := bytes.Cut(out, []byte("\r\n"))
		if !ok || !statusLine.Match(line) {
			t.Fatalf("answer %d: malformed status line %q", n, out[:min(len(out), 80)])
		}
		code, _ := strconv.Atoi(string(line[9:12]))
		length := -1
		for {
			var h []byte
			h, rest, ok = bytes.Cut(rest, []byte("\r\n"))
			if !ok {
				t.Fatalf("answer %d: unterminated header block", n)
			}
			if len(h) == 0 {
				break
			}
			if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
				length, _ = strconv.Atoi(string(v))
			}
		}
		bodied := code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
		if bodied && len(rest) > 0 && !bytes.HasPrefix(rest, []byte("HTTP/1.1 ")) {
			if length < 0 || len(rest) < length {
				t.Fatalf("answer %d: %d body bytes, Content-Length %d", n, len(rest), length)
			}
			rest = rest[length:]
		}
		out = rest
	}
}

// FuzzServeConn writes arbitrary bytes to a live connection and closes
// its write side. The loop must not panic, every answer must start with
// a well-formed status line, and the server must close the connection
// within the header deadline.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte(rawRequest("POST", "/v1/decide", `{"class":0,"home":1}`)))
	f.Add([]byte(rawRequest("POST", "/v1/report", `{"site":1,"num_io":2}`)))
	f.Add([]byte(rawRequest("GET", "/v1/stats", "") + rawRequest("HEAD", "/healthz", "") + rawRequest("GET", "/readyz", "")))
	f.Add([]byte(rawRequest("POST", "/v1/decide", `{"class":0,"home":1}`, "Expect: 100-continue")))
	f.Add([]byte(rawRequest("POST", "/v1/decide", `{"class":0,"home":1}`, "Connection: close") + "GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("POST /v1/report HTTP/1.1\r\nHost: a\r\nContent-Length: 99\r\n\r\n{\"site\":0}"))
	f.Add([]byte("POST /v1/report HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))
	f.Add([]byte("GET /healthz HTTP/1.0\r\n\r\n"))
	f.Add([]byte("GET http://a/v1/stats?x=1 HTTP/1.1\nHost: a\n\n"))
	f.Add([]byte("CONNECT a:80 HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET /v1/%zz HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte{})
	cfg := Default()
	srv, err := NewServer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for s := 0; s < cfg.NumSites; s++ {
		serveBody(f, srv.Handler(), "/v1/report", []byte(fmt.Sprintf(`{"site":%d}`, s)), http.StatusNoContent)
	}
	addr := listen(f, srv)
	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(headerTimeout + lingerTimeout + time.Second))
		nc.Write(data) // the server may close before it reads everything
		nc.(*net.TCPConn).CloseWrite()
		out, err := io.ReadAll(nc)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("connection neither answered nor closed in time; got %q", out)
		}
		checkAnswers(t, out)
		if n := srv.tr.panics.Load(); n != 0 {
			t.Fatalf("%d panics recovered on the connection loop", n)
		}
	})
}

// BenchmarkServeConn times one decide and one report from a keep-alive
// client over loopback: through Serve (conn) and through net/http's
// server running the same handler tree (nethttp). The difference is the
// transport's.
func BenchmarkServeConn(b *testing.B) {
	for _, tc := range []struct {
		name  string
		start func(*Server) string
	}{
		{"conn", func(srv *Server) string { return "http://" + listen(b, srv) }},
		{"nethttp", func(srv *Server) string {
			ts := httptest.NewServer(srv.Handler())
			b.Cleanup(ts.Close)
			return ts.URL
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			base := tc.start(handlerServer(b))
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			b.Cleanup(tr.CloseIdleConnections)
			client := &http.Client{Transport: tr}
			post := func(path string, body []byte, want int) {
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want {
					b.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				post("/v1/decide", decideBody, http.StatusOK)
				post("/v1/report", reportBody, http.StatusNoContent)
			}
		})
	}
}
