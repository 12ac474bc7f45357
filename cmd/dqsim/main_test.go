package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dqalloc/internal/policy"
)

// -update regenerates the golden files under testdata/.
var update = flag.Bool("update", false, "rewrite golden files")

// TestParsePolicy pins the policy names dqsim's -policy flag accepts.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"LOCAL": "LOCAL", "local": "LOCAL", "Random": "RANDOM",
		"bnq": "BNQ", "BNQRD": "BNQRD", "lert": "LERT",
	} {
		kind, err := policy.ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if kind.String() != want {
			t.Errorf("ParseKind(%q) = %v, want %v", name, kind, want)
		}
	}
	if _, err := policy.ParseKind("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-policy", "nope"}, io.Discard); err == nil {
		t.Error("run accepted an unknown -policy")
	}
}

func TestRunSmoke(t *testing.T) {
	err := run([]string{"-policy", "BNQ", "-warmup", "200", "-measure", "1500"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-policy", "nope"}, io.Discard); err == nil {
		t.Error("bad policy flag accepted")
	}
	if err := run([]string{"-sites", "0"}, io.Discard); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunWithExtensionsFlags(t *testing.T) {
	err := run([]string{
		"-policy", "LERT", "-oracle", "-info-period", "50",
		"-warmup", "200", "-measure", "1500", "-reps", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaultFlags(t *testing.T) {
	err := run([]string{
		"-policy", "LERT", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "2000",
		"-mttf", "1500", "-mttr", "300", "-drop", "0.05", "-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// -drop alone must enable network faults without site crashes.
	err = run([]string{
		"-policy", "BNQ", "-warmup", "200", "-measure", "1500",
		"-drop", "0.1", "-fault-retries", "2", "-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-drop", "1.5"}, io.Discard); err == nil {
		t.Error("invalid drop probability accepted")
	}
}

func TestRunWithImperfectionFlags(t *testing.T) {
	err := run([]string{
		"-policy", "LERT", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "2000", "-info-period", "40",
		"-est-noise", "0.5", "-hyst", "0.2", "-power-k", "2", "-random-ties",
		"-admit-max", "4", "-admit-defer", "5", "-admit-max-defers", "2",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithOverloadFlags(t *testing.T) {
	err := run([]string{
		"-policy", "LERT", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "2000",
		"-arrival", "poisson", "-rate", "0.15",
		"-deadline", "250", "-hedge-quantile", "0.9",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The chaos combination — bursty arrivals, deadlines, hedging and
	// faults at once — must run audited and clean.
	err = run([]string{
		"-policy", "BNQ", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "2000",
		"-arrival", "mmpp", "-rate", "0.15", "-burst", "4",
		"-deadline", "250", "-hedge-quantile", "0.9",
		"-mttf", "1500", "-mttr", "300", "-drop", "0.03",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagErrors checks that every malformed imperfect-information
// flag combination, and every NaN or infinite float flag, comes back as
// an error from run, never a panic, a run without end, or a subsystem
// silently left off.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":        {"-no-such-flag"},
		"unparsable value":    {"-est-noise", "lots"},
		"bad noise dist":      {"-est-noise", "0.5", "-est-noise-dist", "cauchy"},
		"negative noise":      {"-est-noise", "-0.5"},
		"hysteresis >= 1":     {"-hyst", "1"},
		"negative hysteresis": {"-hyst", "-0.1"},
		"power-k too large":   {"-power-k", "99"},
		"ties without cost":   {"-policy", "LOCAL", "-random-ties"},
		"defer without bound": {"-admit-max", "0", "-admit-defer", "-3"},
		"negative defers":     {"-admit-max", "4", "-admit-defer", "5", "-admit-max-defers", "-1"},
		"unknown arrival":     {"-arrival", "weibull"},
		"zero arrival rate":   {"-arrival", "poisson", "-rate", "0"},
		"burst below one":     {"-arrival", "mmpp", "-rate", "0.2", "-burst", "0.5"},
		"negative deadline":   {"-deadline", "-10"},
		"hedge quantile >= 1": {"-hedge-quantile", "1"},
		"negative hedge":      {"-hedge-quantile", "-0.5"},
		"rebuild unplaced":    {"-rebuild"},
		"copies over sites":   {"-objects", "12", "-copies", "9"},
		"bad degraded mode":   {"-objects", "12", "-rebuild", "-degraded", "maybe"},
		"floor over initial":  {"-objects", "12", "-copies", "2", "-rebuild", "-min-copies", "3"},
		"ceiling over sites":  {"-objects", "12", "-rebuild", "-max-copies", "9"},
		"scan without rates":  {"-objects", "12", "-rebuild", "-scan", "100", "-hot", "0.01", "-cold", "0.05"},
		"zero fragment":       {"-objects", "12", "-rebuild", "-frag-size", "0"},
		"NaN measure":         {"-measure", "NaN"},
		"infinite measure":    {"-measure", "Inf"},
		"NaN warmup":          {"-warmup", "NaN"},
		"NaN think":           {"-think", "NaN"},
		"infinite think":      {"-think", "Inf"},
		"NaN pio":             {"-pio", "NaN"},
		"NaN msg":             {"-msg", "NaN"},
		"NaN deadline":        {"-deadline", "NaN"},
		"NaN hedge quantile":  {"-hedge-quantile", "NaN"},
		"NaN info period":     {"-info-period", "NaN"},
		"NaN noise":           {"-est-noise", "NaN"},
		"NaN mttf":            {"-mttf", "NaN"},
		"NaN drop":            {"-drop", "NaN"},
		"infinite mttf":       {"-mttf", "Inf"},
		"negative infinity":   {"-rate", "-Inf"},
		"negative mttf":       {"-mttf", "-5"},
		"negative mttr":       {"-mttr", "-1"},
		"negative info":       {"-info-period", "-5"},
		"negative slow mttf":  {"-slow-mttf", "-1"},
		"negative brownout":   {"-brownout-mttf", "-1"},
		"negative net delay":  {"-net-delay", "-1"},
		"negative timeout":    {"-fault-timeout", "-9"},
		"negative admit max":  {"-admit-max", "-3"},
		"negative objects":    {"-objects", "-2"},
		"retries below -1":    {"-fault-retries", "-2"},
		"negative penalty":    {"-suspect", "-suspect-penalty", "-0.5"},
	}
	for name, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: args %v accepted", name, args)
		}
	}
}

func TestRunWithReplicationFlags(t *testing.T) {
	// Crash-driven re-replication with degraded fetches, audited.
	err := run([]string{
		"-policy", "LERT", "-mpl", "5",
		"-warmup", "200", "-measure", "3000",
		"-objects", "30", "-copies", "2", "-rebuild",
		"-frag-size", "2", "-rebuild-delay", "10",
		"-mttf", "1500", "-mttr", "300",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Load-driven add/drop plus the reject mode, audited.
	err = run([]string{
		"-policy", "BNQ", "-mpl", "5",
		"-warmup", "200", "-measure", "3000",
		"-objects", "30", "-copies", "2", "-rebuild", "-max-copies", "4",
		"-scan", "200", "-hot", "1e-4", "-cold", "1e-5",
		"-degraded", "reject",
		"-mttf", "2000", "-mttr", "300",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// A static partial placement without the manager still runs.
	err = run([]string{
		"-policy", "LERT", "-mpl", "5",
		"-warmup", "200", "-measure", "1500",
		"-objects", "30", "-copies", "2",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// goldenArgs is a small deterministic run exercising the new
// imperfect-information surface end to end.
func goldenArgs(jsonOut bool) []string {
	args := []string{
		"-policy", "BNQ", "-sites", "3", "-mpl", "5", "-seed", "3",
		"-warmup", "100", "-measure", "1000", "-info-period", "40",
		"-est-noise", "0.5", "-hyst", "0.1",
		"-admit-max", "4", "-admit-defer", "5",
		"-audit",
	}
	if jsonOut {
		args = append(args, "-json")
	}
	return args
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestRunGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(goldenArgs(false), &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "results.golden", buf.Bytes())
}

// replicationGoldenArgs is a deterministic crash-and-rebuild run pinning
// the replication output surface.
func replicationGoldenArgs(jsonOut bool) []string {
	args := []string{
		"-policy", "LERT", "-mpl", "5", "-seed", "3",
		"-warmup", "500", "-measure", "6000",
		"-objects", "30", "-copies", "2", "-rebuild",
		"-frag-size", "2", "-rebuild-delay", "10",
		"-mttf", "1500", "-mttr", "600",
		"-audit",
	}
	if jsonOut {
		args = append(args, "-json")
	}
	return args
}

func TestRunReplicationGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(replicationGoldenArgs(false), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replicas: rebuilt=", "frag avail"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("replication output missing %q:\n%s", want, buf.Bytes())
		}
	}
	checkGolden(t, "results_replication.golden", buf.Bytes())
}

func TestRunReplicationGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(replicationGoldenArgs(true), &buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	for _, field := range []string{
		"ReplicasRebuilt", "RebuildsAborted", "DegradedReads",
		"NoReplicaRejects", "FragAvailability", "MinFragAvailability",
	} {
		if _, ok := parsed[0][field]; !ok {
			t.Errorf("JSON result missing field %q", field)
		}
	}
	checkGolden(t, "results_replication_json.golden", buf.Bytes())
}

func TestRunWithParallelFlags(t *testing.T) {
	// Every placement mode runs audited, alone and under chaos.
	for _, mode := range []string{"single", "operator", "dop"} {
		err := run([]string{
			"-policy", "LERT", "-sites", "4", "-mpl", "5",
			"-warmup", "200", "-measure", "2000",
			"-par-mode", mode, "-par-join", "0.6",
			"-audit",
		}, io.Discard)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	// Trees + deadlines + operator hedging + faults + partial placement.
	err := run([]string{
		"-policy", "LERT", "-sites", "4", "-mpl", "5",
		"-warmup", "200", "-measure", "2000",
		"-par-mode", "dop", "-par-join", "0.8", "-par-overhead", "0.5",
		"-deadline", "300", "-hedge-quantile", "0.9", "-par-hedge",
		"-objects", "12", "-copies", "2",
		"-mttf", "1500", "-mttr", "300", "-drop", "0.03",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"unknown mode":        {"-par-mode", "both"},
		"hedge without trees": {"-par-hedge"},
		"hedge without hedge": {"-par-mode", "dop", "-par-hedge"},
		"bad join prob":       {"-par-mode", "dop", "-par-join", "1.5"},
		"negative maxdop":     {"-par-mode", "dop", "-par-maxdop", "-1"},
		"trees and migration": {"-par-mode", "single"},
	} {
		if name == "trees and migration" {
			continue // no migration flag; covered by the config test
		}
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: args %v accepted", name, args)
		}
	}
}

// parallelGoldenArgs is a deterministic operator-tree run pinning the
// parallel-query output surface.
func parallelGoldenArgs(jsonOut bool) []string {
	args := []string{
		"-policy", "LERT", "-sites", "4", "-mpl", "5", "-seed", "3",
		"-warmup", "500", "-measure", "6000",
		"-par-mode", "dop", "-par-join", "0.7", "-par-overhead", "0.5",
		"-audit",
	}
	if jsonOut {
		args = append(args, "-json")
	}
	return args
}

func TestRunParallelGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(parallelGoldenArgs(false), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plans: parallel=", "operators: spawned="} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("parallel output missing %q:\n%s", want, buf.Bytes())
		}
	}
	checkGolden(t, "results_parallel.golden", buf.Bytes())
}

func TestRunParallelGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(parallelGoldenArgs(true), &buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	for _, field := range []string{
		"Operators", "OperatorsCompleted", "ParallelQueries", "DOPHist",
	} {
		if _, ok := parsed[0][field]; !ok {
			t.Errorf("JSON result missing field %q", field)
		}
	}
	checkGolden(t, "results_parallel_json.golden", buf.Bytes())
}

func TestRunWithSlowFaultFlags(t *testing.T) {
	// Fail-slow episodes alone, audited (conservation through the
	// rate-scaling path).
	err := run([]string{
		"-policy", "LERT", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "3000",
		"-slow-mttf", "800", "-slow-mttr", "300",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The full gray-failure stack: CPU-only fail-slow, ring brownouts,
	// the suspicion detector and straggler hedging, plus crashes.
	err = run([]string{
		"-policy", "BNQ", "-sites", "3", "-mpl", "5",
		"-warmup", "200", "-measure", "3000",
		"-slow-mttf", "800", "-slow-mttr", "300", "-slow-factor", "6", "-slow-disk", "1",
		"-brownout-mttf", "1000", "-brownout-mttr", "200", "-brownout-factor", "3",
		"-suspect", "-suspect-ratio", "2.5", "-suspect-penalty", "500",
		"-hedge-quantile", "0.9",
		"-mttf", "2000", "-mttr", "300",
		"-audit",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"slow factor below one":     {"-slow-mttf", "800", "-slow-factor", "0.5"},
		"slow disk below one":       {"-slow-mttf", "800", "-slow-disk", "0.5"},
		"brownout factor below one": {"-brownout-mttf", "800", "-brownout-factor", "0.5"},
		"suspect ratio w/o detect":  {"-suspect-ratio", "2.5"},
		"penalty w/o detect":        {"-suspect-penalty", "10"},
		"suspect ratio below clear": {"-suspect", "-suspect-ratio", "1.2"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: args %v accepted", name, args)
		}
	}
}

// grayGoldenArgs is a deterministic fail-slow run with the detection
// stack on, pinning the gray-failure output surface.
func grayGoldenArgs(jsonOut bool) []string {
	args := []string{
		"-policy", "LERT", "-sites", "3", "-mpl", "5", "-seed", "3",
		"-think", "600", "-warmup", "300", "-measure", "8000",
		"-slow-mttf", "1500", "-slow-mttr", "500", "-slow-factor", "10",
		"-brownout-mttf", "2000", "-brownout-mttr", "300",
		"-suspect", "-hedge-quantile", "0.9",
		"-audit",
	}
	if jsonOut {
		args = append(args, "-json")
	}
	return args
}

func TestRunGrayGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(grayGoldenArgs(false), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fail-slow: episodes=", "suspicion: transfers="} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("gray-failure output missing %q:\n%s", want, buf.Bytes())
		}
	}
	checkGolden(t, "results_gray.golden", buf.Bytes())
}

func TestRunGrayGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(grayGoldenArgs(true), &buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	for _, field := range []string{
		"SlowEpisodes", "DegradedTime", "Brownouts", "SuspectTransfers",
	} {
		if _, ok := parsed[0][field]; !ok {
			t.Errorf("JSON result missing field %q", field)
		}
	}
	checkGolden(t, "results_gray_json.golden", buf.Bytes())
}

func TestRunGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(goldenArgs(true), &buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(parsed) != 1 {
		t.Fatalf("got %d result objects, want 1", len(parsed))
	}
	for _, field := range []string{
		"Policy", "Completed", "MeanWait", "QueriesShed", "QueriesDeferred",
		"RespQuantiles", "DeadlineMisses", "Hedged",
	} {
		if _, ok := parsed[0][field]; !ok {
			t.Errorf("JSON result missing field %q", field)
		}
	}
	checkGolden(t, "results_json.golden", buf.Bytes())
}

// TestRunHelpSucceeds: -h prints usage and is no error, so dqsim -h
// exits 0.
func TestRunHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); err != nil {
		t.Fatalf("run -h = %v, want nil", err)
	}
}
