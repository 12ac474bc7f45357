package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dqalloc/internal/policy"
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

	for s := 0; s < 3; s++ {
		body := fmt.Sprintf(`{"site":%d,"num_io":0,"num_cpu":0}`, s)
		resp, err := http.Post(base+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report %d: status %d", s, resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"class":0,"home":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	out := buf.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained:") {
		t.Errorf("drain messages missing from output: %q", out)
	}
	if !strings.Contains(out, "1 requests (1 decided") {
		t.Errorf("final totals missing from output: %q", out)
	}
}
