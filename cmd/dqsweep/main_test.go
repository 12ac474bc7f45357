package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dqalloc/internal/noise"
	"dqalloc/internal/policy"
	"dqalloc/internal/system"
)

// TestSetterKnownParams: each documented sweep parameter, swept as a
// one-point grid, takes effect on that point's Config.
func TestSetterKnownParams(t *testing.T) {
	tests := []struct {
		param string
		value float64
		check func(system.Config) bool
	}{
		{param: "think", value: 200, check: func(c system.Config) bool { return c.ThinkTime == 200 }},
		{param: "mpl", value: 25, check: func(c system.Config) bool { return c.MPL == 25 }},
		{param: "sites", value: 4, check: func(c system.Config) bool { return c.NumSites == 4 }},
		{param: "pio", value: 0.3, check: func(c system.Config) bool { return c.ClassProbs[0] == 0.3 && c.ClassProbs[1] == 0.7 }},
		{param: "msg", value: 2, check: func(c system.Config) bool { return c.Classes[0].MsgLength == 2 && c.Classes[1].MsgLength == 2 }},
		{param: "info-period", value: 50, check: func(c system.Config) bool {
			return c.InfoMode == system.InfoPeriodic && c.InfoPeriod == 50
		}},
		{param: "info-period", value: 0, check: func(c system.Config) bool {
			return c.InfoMode == system.InfoPerfect
		}},
		{param: "est-noise", value: 0.5, check: func(c system.Config) bool {
			return c.Noise == noise.Config{Enabled: true, Dist: noise.Lognormal, ReadsSigma: 0.5, CPUSigma: 0.5}
		}},
		{param: "est-noise", value: 0, check: func(c system.Config) bool {
			return !c.Noise.Enabled
		}},
		{param: "hyst", value: 0.2, check: func(c system.Config) bool {
			return c.Tuning.Hysteresis == 0.2
		}},
	}
	for _, tt := range tests {
		points, err := sweepPoints(tt.param, tt.value, tt.value, 1)
		if err != nil {
			t.Fatalf("sweepPoints(%q, %v): %v", tt.param, tt.value, err)
		}
		if len(points) != 1 {
			t.Fatalf("sweepPoints(%q, %v) gave %d points, want 1", tt.param, tt.value, len(points))
		}
		if !tt.check(points[0].cfg) {
			t.Errorf("sweep %q=%v did not take effect", tt.param, tt.value)
		}
	}
}

// TestSetterErrors: an unknown parameter, or a value its flag rejects,
// fails the grid.
func TestSetterErrors(t *testing.T) {
	if _, err := sweepPoints("bogus", 1, 1, 1); err == nil {
		t.Error("unknown parameter accepted")
	}
	for param, bad := range map[string]float64{"pio": 1.5, "est-noise": -0.5, "hyst": 1, "mpl": 2.5} {
		if _, err := sweepPoints(param, bad, bad, 1); err == nil {
			t.Errorf("%s = %v accepted", param, bad)
		}
	}
	// A bad value anywhere on the grid, not only the first point.
	if _, err := sweepPoints("pio", 0.5, 1.5, 0.5); err == nil {
		t.Error("pio grid reaching 1.5 accepted")
	}
}

func TestParsePolicies(t *testing.T) {
	kinds, err := parsePolicies("local, BNQ ,lert")
	if err != nil {
		t.Fatal(err)
	}
	want := []policy.Kind{policy.Local, policy.BNQ, policy.LERT}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if _, err := parsePolicies("nothing-real"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := parsePolicies(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := parsePolicies(" , ,"); err == nil {
		t.Error("list of blank entries accepted")
	}
	kinds, err = parsePolicies(",WORK,, random,")
	if err != nil || len(kinds) != 2 || kinds[0] != policy.Work || kinds[1] != policy.Random {
		t.Errorf("blank entries not skipped: %v, %v", kinds, err)
	}
}

func TestRunSweepSmoke(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	err := run(ctx, []string{
		"-param", "think", "-from", "300", "-to", "350", "-step", "50",
		"-policies", "LOCAL", "-reps", "1", "-warmup", "200", "-measure", "1500",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("sweep emitted %d lines, want header + 2 rows:\n%s", lines, buf.String())
	}
	err = run(ctx, []string{
		"-param", "est-noise", "-from", "0", "-to", "0.5", "-step", "0.5",
		"-policies", "LERT", "-reps", "1", "-warmup", "200", "-measure", "1500",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// A bad step, an unknown flag, or a value its flag rejects anywhere
	// on the grid fails before any output.
	for _, args := range [][]string{
		{"-step", "0"},
		{"-param", "bogus"},
		{"-param", "pio", "-from", "0.5", "-to", "1.5", "-step", "0.5"},
		{"-param", "mpl", "-from", "20", "-to", "25", "-step", "2.5"},
	} {
		buf.Reset()
		if err := run(ctx, args, &buf); err == nil || buf.Len() != 0 {
			t.Errorf("%q: error %v after output %q", args, err, buf.String())
		}
	}
}

// TestRunSweepInterrupted: a cancelled context stops the sweep before
// the next replication, keeps the rows already emitted, and returns a
// non-zero (error) status.
func TestRunSweepInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{
		"-param", "think", "-from", "300", "-to", "400", "-step", "50",
		"-policies", "LOCAL,LERT", "-reps", "1", "-warmup", "200", "-measure", "1500",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("run = %v, want interrupted error", err)
	}
	if !strings.HasPrefix(buf.String(), "param,value,policy,") {
		t.Errorf("header not flushed before interrupt:\n%s", buf.String())
	}
}

// TestRunSweepPoints: point i is from + i·step at 12 significant digits,
// so a decimal step does not drift, and the value column prints the
// string -param was parsed from.
func TestRunSweepPoints(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-param", "pio", "-from", "0.3", "-to", "0.8", "-step", "0.1",
		"-policies", "LOCAL", "-reps", "1", "-warmup", "100", "-measure", "500",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var values []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		values = append(values, strings.Split(line, ",")[1])
	}
	if got, want := strings.Join(values, " "), "0.3 0.4 0.5 0.6 0.7 0.8"; got != want {
		t.Errorf("pio points %q, want %q", got, want)
	}
}

// TestRunHelpSucceeds: -h prints usage and is no error, so dqsweep -h
// exits 0.
func TestRunHelpSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("run -h = %v, want nil", err)
	}
	if !strings.Contains(out.String(), "Usage of dqsweep") {
		t.Errorf("run -h printed no usage: %q", out.String())
	}
}
