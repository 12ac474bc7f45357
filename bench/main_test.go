package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dqalloc/internal/serve"
)

const specFile = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

var (
	serversOnce sync.Once
	serversDir  string
	serversErr  error
)

// buildServers compiles cmd/dqserve and the reference server once per
// test binary and returns their paths.
func buildServers(t *testing.T) (dqserve, refserve string) {
	t.Helper()
	serversOnce.Do(func() {
		serversDir, serversErr = os.MkdirTemp("", "bench-servers")
		if serversErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", serversDir+"/", "dqalloc/cmd/dqserve", "dqalloc/bench/refserve").CombinedOutput()
		if err != nil {
			serversErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if serversErr != nil {
		t.Fatalf("building the servers: %v", serversErr)
	}
	return filepath.Join(serversDir, "dqserve"), filepath.Join(serversDir, "refserve")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serversDir != "" {
		os.RemoveAll(serversDir)
	}
	os.Exit(code)
}

// tinyOptions runs a workload at a small fraction of its horizons.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	o := options{workload: workload, seed: 3, seconds: 100 * time.Millisecond, trace: trace, scale: 0.02}
	if workload == "serve" {
		o.dqserve, o.refserve = buildServers(t)
	}
	return o
}

// TestWorkloadsEmitSpecMetrics runs every workload at tiny horizons in
// both modes and checks that it emits exactly the metric names and units
// BENCHMARK.json lists, with no failed op, and that every per-layer
// metric is measured by at least one workload rather than filled in.
func TestWorkloadsEmitSpecMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp := testSpec(t)
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, nameRE)
		}
	}
	measured := map[string]bool{}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			out, _, err := runWorkload(context.Background(), tinyOptions(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", wl.Name, trace, out.failed, out.attempted, out.problems)
			}
			for name := range out.metrics {
				measured[name] = true
			}
			if err := sp.finalize(out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

// TestTracedPolicyIsNeutral checks that wrapping the policy to count and
// time it reproduces the plain run's TraceDigest and Results for all six
// paper policies, lan64 and chaos.
func TestTracedPolicyIsNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("runs replications")
	}
	for _, name := range []string{"paper", "lan64", "chaos"} {
		w, err := newSimWorkload(name, 5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.checkWrapperNeutral(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTracedPolicyCounts checks that the wrapper sees every decision and
// the view reads behind it.
func TestTracedPolicyCounts(t *testing.T) {
	w, err := newSimWorkload("lan64", 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c := w.cfgs[0]
	tp, err := newTracedPolicy(c.PolicyKind, c.NumSites, c.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRep(c, false, tp)
	if err != nil {
		t.Fatal(err)
	}
	if tp.calls == 0 || tp.sampled != int(tp.calls/selectSample) {
		t.Errorf("%d Select calls, %d sampled", tp.calls, tp.sampled)
	}
	// LERT reads two counts for the arrival site and each of the 63
	// remote sites per decision.
	if want := 2 * uint64(c.NumSites) * tp.calls; tp.reads != want {
		t.Errorf("%d view reads for %d calls, want %d", tp.reads, tp.calls, want)
	}
	if r.res.Completed == 0 {
		t.Error("replication completed nothing")
	}
}

// startTestServer runs an in-process serve.Server behind httptest.
func startTestServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs.URL
}

// TestServeClient drives an in-process server with the benchmark's
// closed-loop clients: every op succeeds and /v1/stats agrees with what
// the clients sent.
func TestServeClient(t *testing.T) {
	_, url := startTestServer(t, serveConfig())
	cs := newClients(url, 2, 1)
	defer closeClients(cs)
	ctx := context.Background()
	if err := sendInitialReports(ctx, cs[0]); err != nil {
		t.Fatal(err)
	}
	s := drive(ctx, cs, 200*time.Millisecond, nil, -1)
	if s.attempted == 0 || s.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", s.failed, s.attempted, s.problems)
	}
	st, err := fetchStats(ctx, cs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStats(st, cs); err != nil {
		t.Error(err)
	}
}

// TestServeClientCountsShedAsFailures overloads a server whose decision
// queue holds one request, its loop slowed by a sleeping clock, and
// checks that every shed request is counted as a failed op.
func TestServeClientCountsShedAsFailures(t *testing.T) {
	cfg := serveConfig()
	cfg.QueueBound = 1
	cfg.Clock = func() time.Time {
		time.Sleep(200 * time.Microsecond)
		return time.Now()
	}
	_, url := startTestServer(t, cfg)
	cs := newClients(url, 8, 1)
	defer closeClients(cs)
	ctx := context.Background()
	if err := sendInitialReports(ctx, cs[0]); err != nil {
		t.Fatal(err)
	}
	s := drive(ctx, cs, 200*time.Millisecond, nil, -1)
	st, err := fetchStats(ctx, cs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 || uint64(s.failed) != st.Shed {
		t.Errorf("server shed %d requests, clients counted %d failed ops of %d", st.Shed, s.failed, s.attempted)
	}
	if len(s.problems) == 0 || !strings.Contains(s.problems[0], "status 429") {
		t.Errorf("failures not reported as sheds: %v", s.problems)
	}
	if err := checkStats(st, cs); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 102, 100, 98}, false, "unchanged"},
		{"slower", []float64{120, 121, 119, 120, 122, 118}, false, "worse"},
		{"faster", []float64{80, 81, 79, 80, 82, 78}, false, "better"},
		{"noisy", []float64{60, 140, 100, 70, 130, 100}, false, "unresolved"},
		{"noisy but every run faster", []float64{40, 90, 60, 45, 85, 60}, false, "better"},
		{"throughput up", []float64{120, 121, 119, 120, 122, 118}, true, "better"},
		{"throughput down", []float64{80, 81, 79, 80, 82, 78}, true, "worse"},
	} {
		if got := verdict(base, c.change, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare writes two synthetic report files and checks the printed
// verdicts and the separate behavioral-drift line.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS []float64, fp string) string {
		path := filepath.Join(dir, name)
		for _, v := range runS {
			r := report{Workload: "paper", Seed: 1, Fingerprint: fp, result: result{Correct: true, Metrics: map[string]metric{
				"run_s": {v, "s"}, "setup_s": {0.001, "s"},
			}}}
			if err := appendJSONLine(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, "aaaa")
	change := write("change.jsonl", []float64{1.30, 1.31, 1.29, 1.30, 1.32}, "bbbb")
	var buf bytes.Buffer
	if err := compare(&buf, testSpec(t), base, change); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"run_s", "worse", "setup_s", "unchanged", "behavior drift", "aaaa", "bbbb"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
}

// TestRunPrintsResultLine runs the command end to end on chaos and
// checks the last line of output and the -o report.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-horizon workload")
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "chaos", "--seed", "2", "--seconds", "1", "--trace", "0", "-spec", specFile, "-o", path}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v", last)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
		t.Errorf("result %+v", res)
	}
	reps, err := readReports(path)
	if err != nil || len(reps) != 1 || reps[0].Fingerprint == "" || reps[0].Workload != "chaos" {
		t.Errorf("report file: %v %+v", err, reps)
	}
}

// TestFinalizeFailedRun checks that a run whose ops all failed still
// yields a printable result and report, marked incorrect.
func TestFinalizeFailedRun(t *testing.T) {
	out := newOutcome()
	out.attempted, out.failed = 3, 3
	out.set("run_s", math.NaN(), "s")
	out.note("serve.decide_p50_us", math.NaN(), "us")
	if err := testSpec(t).finalize(out, false); err != nil {
		t.Fatal(err)
	}
	rep := report{Workload: "serve", result: result{Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}, Diag: out.diag}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("failed run's report does not encode: %v", err)
	}
	if m := out.metrics["setup_s"]; m.Unit != "s" {
		t.Errorf("missing end-to-end metric not filled in: %+v", m)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "paper", "--trace", "2", "-spec", specFile},
		{"--workload", "paper", "--seconds", "0", "-spec", specFile},
		{"--workload", "serve", "-cpuprofile", "x", "-spec", specFile},
		{"--workload", "nosuch", "--seconds", "1", "-spec", specFile},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run %v: no error", args)
		}
	}
}
