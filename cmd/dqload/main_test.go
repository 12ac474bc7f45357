package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/serve"
)

// startTarget builds a fresh in-process dqserve-equivalent server for
// the loader to drive. No site has reported yet, exactly as after a
// dqserve restart: the loader's own start-up reports must open the
// breakers before its first request.
func startTarget(t *testing.T, numSites int) *httptest.Server {
	t.Helper()
	cfg := serve.Default()
	cfg.NumSites = numSites
	cfg.Policy = policy.BNQ
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestRunReportsBeforeFirstRequest: against a server no site has
// reported to, a short fault-free open-loop run must see no
// "unavailable" answers. The first reporter tick comes a full report
// period after start, so without start-up reports the early requests
// find every breaker still open.
func TestRunReportsBeforeFirstRequest(t *testing.T) {
	ts := startTarget(t, 6)
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-sites", "6", "-rate", "300", "-duration", "300ms",
		"-report-period", "200ms", "-service-mean", "5ms",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "sent=0 ") {
		t.Fatalf("no requests sent: %q", out)
	}
	if !strings.Contains(out, " unavailable=0 ") {
		t.Errorf("fresh server answered unavailable: %q", out)
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := run(ctx, []string{"-rate", "0"}, &buf); err == nil {
		t.Error("zero rate accepted")
	}
	if err := run(ctx, []string{"-floor", "1.5"}, &buf); err == nil {
		t.Error("floor above 1 accepted")
	}
	if err := run(ctx, []string{"stray"}, &buf); err == nil {
		t.Error("stray positional argument accepted")
	}
}

func TestRunDrivesServerAndMeetsFloor(t *testing.T) {
	ts := startTarget(t, 3)
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-sites", "3", "-rate", "400", "-duration", "400ms",
		"-report-period", "25ms", "-service-mean", "5ms", "-floor", "0.9",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "availability=") || !strings.Contains(out, "sent=") {
		t.Errorf("summary missing: %q", out)
	}
	if strings.Contains(out, "sent=0 ") {
		t.Errorf("no requests sent: %q", out)
	}
}

// TestRunClosedLoopDrivesServer: the -closed worker pool must keep the
// server busy, meet the floor, and never send more than one in-flight
// request per worker (bounded by concurrency × duration / min latency —
// asserted loosely via a positive sent count and the floor).
func TestRunClosedLoopDrivesServer(t *testing.T) {
	ts := startTarget(t, 3)
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-sites", "3", "-closed", "-concurrency", "4",
		"-duration", "400ms", "-report-period", "25ms", "-service-mean", "5ms",
		"-floor", "0.9",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "availability=") || strings.Contains(out, "sent=0 ") {
		t.Errorf("closed-loop run sent nothing: %q", out)
	}
	if err := run(context.Background(), []string{"-closed", "-concurrency", "0"}, &buf); err == nil {
		t.Error("zero concurrency accepted with -closed")
	}
}

func TestRunFailsBelowFloor(t *testing.T) {
	// A server that exists only long enough to reserve a port: every
	// request fails at the transport, so availability is zero.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", url, "-rate", "500", "-duration", "150ms", "-floor", "0.9",
		"-timeout", "200ms",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("run = %v, want below-floor error\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "availability=0.0000") {
		t.Errorf("summary should show zero availability: %q", buf.String())
	}
}

// TestRunRejectsOutOfRangeSites: a server configured with more sites
// than the driver emulates returns site ids the driver has no state
// for; they must be tallied as bad_site (and sink availability), never
// panic a worker with an out-of-range index.
func TestRunRejectsOutOfRangeSites(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"site":7,"mode":"policy","policy":"BNQ"}`)
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-url", ts.URL, "-sites", "3", "-rate", "300", "-duration", "200ms",
		"-floor", "0.5",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("run = %v, want below-floor error\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "bad_site=") || strings.Contains(out, "bad_site=0 ") {
		t.Errorf("summary should count out-of-range sites: %q", out)
	}
}

// TestRunInterruptFlushesPartialResults is the SIGINT/SIGTERM contract:
// cancellation mid-run still prints the summary and exits non-zero.
func TestRunInterruptFlushesPartialResults(t *testing.T) {
	ts := startTarget(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(150*time.Millisecond, cancel)
	var buf bytes.Buffer
	err := run(ctx, []string{
		"-url", ts.URL, "-sites", "3", "-rate", "300", "-duration", "30s",
		"-report-period", "25ms",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("run = %v, want interrupted error", err)
	}
	if !strings.Contains(buf.String(), "availability=") {
		t.Errorf("partial summary not flushed: %q", buf.String())
	}
}
