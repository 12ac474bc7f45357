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
		{"-mttf", "-5"}, {"-mttf", "500", "-mttr", "-1"}, {"-info-period", "-5"}, {"-slow-mttf", "-1"},
		{"-brownout-mttf", "-1"}, {"-net-delay", "-1"}, {"-mttf", "500", "-fault-timeout", "-9"},
		{"-admit-max", "-3"}, {"-objects", "-2"}, {"-drop", "-0.5"},
		{"-mttf", "500", "-fault-retries", "-2"}, {"-suspect", "-suspect-penalty", "-0.5"},
		{"-suspect", "-suspect-ratio", "-2"},
	} {
		if _, err := ParseArgs(args); err == nil {
			t.Errorf("ParseArgs(%q) accepted", args)
		}
	}
}

// TestParseArgsRequiresSwitch checks that each flag read only under its
// subsystem's switch is an error without the switch and takes effect
// with it.
func TestParseArgsRequiresSwitch(t *testing.T) {
	tests := []struct {
		flag, value string
		on          []string // the switch that makes flag take effect
	}{
		{"mttr", "300", []string{"-mttf", "1500"}},
		{"fault-timeout", "50", []string{"-mttf", "1500"}},
		{"fault-retries", "1", []string{"-drop", "0.05"}},
		{"slow-mttr", "300", []string{"-slow-mttf", "800"}},
		{"slow-factor", "5", []string{"-slow-mttf", "800"}},
		{"slow-disk", "3", []string{"-slow-mttf", "800"}},
		{"brownout-mttr", "200", []string{"-brownout-mttf", "1000"}},
		{"brownout-factor", "3", []string{"-brownout-mttf", "1000"}},
		{"suspect-ratio", "4", []string{"-suspect"}},
		{"suspect-penalty", "0.5", []string{"-suspect"}},
		{"est-noise-dist", "uniform", []string{"-est-noise", "0.5"}},
		{"admit-defer", "5", []string{"-admit-max", "4"}},
		{"admit-max-defers", "2", []string{"-admit-max", "4"}},
		{"rate", "0.2", []string{"-arrival", "poisson"}},
		{"burst", "2", []string{"-arrival", "mmpp"}},
		{"par-join", "0.6", []string{"-par-mode", "dop"}},
		{"par-filter", "0.5", []string{"-par-mode", "dop"}},
		{"par-maxdop", "2", []string{"-par-mode", "dop"}},
		{"par-overhead", "0.5", []string{"-par-mode", "dop"}},
		{"par-hedge", "true", []string{"-par-mode", "dop", "-hedge-quantile", "0.9"}},
		{"copies", "3", []string{"-objects", "12"}},
		{"rebuild", "true", []string{"-objects", "12"}},
		{"min-copies", "3", []string{"-objects", "12", "-rebuild"}},
		{"max-copies", "4", []string{"-objects", "12", "-rebuild"}},
		{"frag-size", "2", []string{"-objects", "12", "-rebuild"}},
		{"rebuild-delay", "10", []string{"-objects", "12", "-rebuild"}},
		{"scan", "200", []string{"-objects", "12", "-rebuild"}},
		{"hot", "0.1", []string{"-objects", "12", "-rebuild"}},
		{"cold", "0.001", []string{"-objects", "12", "-rebuild"}},
		{"degraded", "reject", []string{"-objects", "12", "-rebuild"}},
	}
	for _, tt := range tests {
		arg := "-" + tt.flag + "=" + tt.value
		if _, err := ParseArgs([]string{arg}); err == nil {
			t.Errorf("ParseArgs(%q) accepted it without its switch", arg)
		}
		base, err := ParseArgs(tt.on)
		if err != nil {
			t.Fatalf("ParseArgs(%q): %v", tt.on, err)
		}
		cfg, err := ParseArgs(append([]string{arg}, tt.on...))
		if err != nil {
			t.Errorf("ParseArgs(%s %q): %v", arg, tt.on, err)
			continue
		}
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("%s did not take effect with %q", arg, tt.on)
		}
	}
}
