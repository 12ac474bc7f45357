package system

import (
	"reflect"
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/loadinfo"
	"dqalloc/internal/noise"
)

// TestParseArgsDefault pins dqsim's flag defaults to the paper's Table 7
// baseline.
func TestParseArgsDefault(t *testing.T) {
	cfg, err := ParseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, Default()) {
		t.Errorf("ParseArgs(nil) = %+v, want Default() %+v", cfg, Default())
	}
}

// TestParseArgs checks that each flag dqsweep's docs sweep takes effect
// and that bad values, unknown flags and stray arguments are rejected.
func TestParseArgs(t *testing.T) {
	tests := []struct {
		args  []string
		check func(Config) bool
	}{
		{[]string{"-think", "200"}, func(c Config) bool { return c.ThinkTime == 200 }},
		{[]string{"-mpl", "25"}, func(c Config) bool { return c.MPL == 25 }},
		{[]string{"-sites", "4"}, func(c Config) bool { return c.NumSites == 4 }},
		{[]string{"-pio", "0.3"}, func(c Config) bool { return c.ClassProbs[0] == 0.3 && c.ClassProbs[1] == 0.7 }},
		{[]string{"-msg", "2"}, func(c Config) bool { return c.Classes[0].MsgLength == 2 && c.Classes[1].MsgLength == 2 }},
		{[]string{"-info-period", "50"}, func(c Config) bool { return c.InfoMode == InfoPeriodic && c.InfoPeriod == 50 }},
		{[]string{"-info-period", "0"}, func(c Config) bool { return c.InfoMode == InfoPerfect }},
		{[]string{"-est-noise", "0.5"}, func(c Config) bool {
			return c.Noise == noise.Config{Enabled: true, Dist: noise.Lognormal, ReadsSigma: 0.5, CPUSigma: 0.5}
		}},
		{[]string{"-est-noise", "0"}, func(c Config) bool { return !c.Noise.Enabled }},
		{[]string{"-hyst", "0.2"}, func(c Config) bool { return c.Tuning.Hysteresis == 0.2 }},
		{[]string{"-mttf", "500", "-fault-retries", "-1"}, func(c Config) bool { return c.Fault.MaxRetries == fault.Default().MaxRetries }},
		{[]string{"-suspect", "-suspect-penalty", "-1"}, func(c Config) bool { return c.Suspect == loadinfo.DefaultSuspect() }},
	}
	for _, tt := range tests {
		cfg, err := ParseArgs(tt.args)
		if err != nil {
			t.Errorf("ParseArgs(%q): %v", tt.args, err)
			continue
		}
		if !tt.check(cfg) {
			t.Errorf("ParseArgs(%q) did not take effect", tt.args)
		}
	}
	for _, args := range [][]string{
		{"-bogus", "1"}, {"-pio", "1.5"}, {"-est-noise", "-0.5"}, {"-hyst", "1"},
		{"-mpl", "2.5"}, {"-audit", "1"}, {"-pio", "NaN"}, {"-warmup", "-Inf"},
		// A negative subsystem switch used to run the default silently.
		{"-mttf", "-5"}, {"-mttr", "-1"}, {"-info-period", "-5"}, {"-slow-mttf", "-1"},
		{"-brownout-mttf", "-1"}, {"-net-delay", "-1"}, {"-fault-timeout", "-9"},
		{"-admit-max", "-3"}, {"-objects", "-2"}, {"-drop", "-0.5"},
		{"-fault-retries", "-2"}, {"-suspect", "-suspect-penalty", "-0.5"},
		{"-suspect", "-suspect-ratio", "-2"},
	} {
		if _, err := ParseArgs(args); err == nil {
			t.Errorf("ParseArgs(%q) accepted", args)
		}
	}
}
