package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dqalloc/internal/policy"
	"dqalloc/internal/system"
)

func TestSetterKnownParams(t *testing.T) {
	tests := []struct {
		param string
		value float64
		check func(system.Config) bool
	}{
		{param: "think", value: 200, check: func(c system.Config) bool { return c.ThinkTime == 200 }},
		{param: "mpl", value: 25, check: func(c system.Config) bool { return c.MPL == 25 }},
		{param: "sites", value: 4, check: func(c system.Config) bool { return c.NumSites == 4 }},
		{param: "pio", value: 0.3, check: func(c system.Config) bool { return c.ClassProbs[0] == 0.3 }},
		{param: "msg", value: 2, check: func(c system.Config) bool { return c.Classes[0].MsgLength == 2 }},
		{param: "info-period", value: 50, check: func(c system.Config) bool {
			return c.InfoMode == system.InfoPeriodic && c.InfoPeriod == 50
		}},
		{param: "info-period", value: 0, check: func(c system.Config) bool {
			return c.InfoMode == system.InfoPerfect
		}},
		{param: "est-noise", value: 0.5, check: func(c system.Config) bool {
			return c.Noise.Enabled && c.Noise.ReadsSigma == 0.5 && c.Noise.CPUSigma == 0.5
		}},
		{param: "est-noise", value: 0, check: func(c system.Config) bool {
			return !c.Noise.Enabled
		}},
		{param: "hyst", value: 0.2, check: func(c system.Config) bool {
			return c.Tuning.Hysteresis == 0.2
		}},
	}
	for _, tt := range tests {
		apply, err := setter(tt.param)
		if err != nil {
			t.Fatalf("setter(%q): %v", tt.param, err)
		}
		cfg := system.Default()
		if err := apply(&cfg, tt.value); err != nil {
			t.Fatalf("apply %q=%v: %v", tt.param, tt.value, err)
		}
		if !tt.check(cfg) {
			t.Errorf("apply %q=%v did not take effect", tt.param, tt.value)
		}
	}
}

func TestSetterErrors(t *testing.T) {
	if _, err := setter("bogus"); err == nil {
		t.Error("unknown parameter accepted")
	}
	apply, err := setter("pio")
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Default()
	if err := apply(&cfg, 1.5); err == nil {
		t.Error("pio > 1 accepted")
	}
	for param, bad := range map[string]float64{"est-noise": -0.5, "hyst": 1} {
		apply, err := setter(param)
		if err != nil {
			t.Fatal(err)
		}
		if err := apply(&cfg, bad); err == nil {
			t.Errorf("%s = %v accepted", param, bad)
		}
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
	if err := run(ctx, []string{"-step", "0"}, &buf); err == nil {
		t.Error("zero step accepted")
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
