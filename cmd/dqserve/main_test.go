package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dqalloc/internal/policy"
	"dqalloc/internal/serve"
)

// syncBuffer is a goroutine-safe io.Writer for capturing run's output
// while it executes on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestParseKind pins the policy names dqserve's -policy flag accepts.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]policy.Kind{
		"LOCAL": policy.Local, "random": policy.Random, " Bnq ": policy.BNQ,
		"BNQRD": policy.BNQRD, "LERT": policy.LERT, "work": policy.Work,
	} {
		got, err := policy.ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := policy.ParseKind("FIFO"); err == nil {
		t.Error("ParseKind accepted an unknown policy")
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	ctx := context.Background()
	var buf syncBuffer
	if err := run(ctx, []string{"-policy", "NOPE"}, &buf); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(ctx, []string{"stray"}, &buf); err == nil {
		t.Error("stray positional argument accepted")
	}
	if err := run(ctx, []string{"-sites", "0"}, &buf); err == nil {
		t.Error("zero sites accepted")
	}
}

// waitForListen polls the output buffer for the "listening on" line and
// returns the bound address.
func waitForListen(t *testing.T, buf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		out := buf.String()
		if i := strings.Index(out, "listening on "); i >= 0 {
			rest := out[i+len("listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return strings.TrimSpace(rest[:j])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never reported its address; output: %q", buf.String())
	return ""
}

// TestRunServesAndDrainsOnCancel is the command-level lifecycle test:
// run() binds an ephemeral port, serves decisions, and on context
// cancellation (the SIGTERM path) drains gracefully and reports totals.
// An idle keep-alive connection held across the cancel does not delay
// the drain, a decide in flight when the drain starts still gets its 200
// with "Connection: close", and no goroutine of the server survives.
func TestRunServesAndDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-policy", "BNQ", "-sites", "3",
			"-ttl", "500ms", "-drain-timeout", "5s",
		}, &buf)
	}()
	addr := waitForListen(t, &buf)
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	for s := 0; s < 3; s++ {
		body := fmt.Sprintf(`{"site":%d,"num_io":0,"num_cpu":0}`, s)
		resp, err := client.Post(base+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report %d: status %d", s, resp.StatusCode)
		}
	}
	resp, err := client.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = client.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"class":0,"home":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d", resp.StatusCode)
	}

	// An idle keep-alive connection: one answered request, then silence.
	idle := dialRaw(t, addr)
	io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: dqserve\r\n\r\n")
	idleR := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleR, nil); err != nil || resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("idle connection's request: %v, %v", resp, err)
	} else {
		io.ReadAll(resp.Body)
	}

	// A decide in flight: admitted, its handler waiting for the rest of
	// its body when the drain starts.
	const decide = `{"class":1,"home":2}`
	inflight := dialRaw(t, addr)
	fmt.Fprintf(inflight, "POST /v1/decide HTTP/1.1\r\nHost: dqserve\r\nContent-Length: %d\r\n\r\n%s", len(decide), decide[:5])
	waitForStat(t, client, base, func(st serve.Stats) bool { return st.Requests == 2 })
	client.CloseIdleConnections()

	start := time.Now()
	cancel()
	// Once the listener refuses connections, Shutdown has begun.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
	}
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Errorf("idle connection: read %v after the drain began, want EOF", err)
	}
	io.WriteString(inflight, decide[5:])
	inflightR := bufio.NewReader(inflight)
	resp, err = http.ReadResponse(inflightR, nil)
	if err != nil {
		t.Fatalf("in-flight decide: %v", err)
	}
	var dr serve.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight decide: status %d, %v", resp.StatusCode, err)
	}
	if !resp.Close { // ReadResponse moves "Connection: close" into Close
		t.Errorf("in-flight decide answered without Connection: close: %v", resp.Header)
	}
	io.Copy(io.Discard, resp.Body)
	if _, err := inflightR.ReadByte(); err != io.EOF {
		t.Errorf("in-flight connection: read %v after its answer, want EOF", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("drain took %v with an idle connection held open", d)
	}
	out := buf.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained:") {
		t.Errorf("drain messages missing from output: %q", out)
	}
	if !strings.Contains(out, "2 requests (2 decided") {
		t.Errorf("final totals missing from output: %q", out)
	}
	if g := serverGoroutines(); g != "" {
		t.Errorf("server goroutines survive the drain:\n%s", g)
	}
}

// dialRaw opens a raw connection to the server with a deadline.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { nc.Close() })
	return nc
}

// waitForStat polls /v1/stats until ok holds.
func waitForStat(t *testing.T, client *http.Client, base string, ok func(serve.Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := client.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && ok(st) {
			return
		}
	}
	t.Fatal("stats never reached the expected state")
}

// serverGoroutines returns the stacks of goroutines still running serve
// code, once they have had a moment to exit.
func serverGoroutines() string {
	var stacks string
	for i := 0; i < 100; i++ {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stacks = ""
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "dqalloc/internal/serve.") {
				stacks += g + "\n\n"
			}
		}
		if stacks == "" {
			return ""
		}
		time.Sleep(10 * time.Millisecond)
	}
	return stacks
}

// TestRunHelpSucceeds: -h prints usage and is no error, so dqserve -h
// exits 0.
func TestRunHelpSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("run -h = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "Usage of dqserve") {
		t.Errorf("run -h printed no usage: %q", out.String())
	}
}
