package main

import "testing"

func TestRunAnalyticalTables(t *testing.T) {
	// Tables 5 and 6 are pure MVA — fast enough to run in a unit test.
	if err := run([]string{"-table", "5"}); err != nil {
		t.Errorf("table 5: %v", err)
	}
	if err := run([]string{"-table", "6", "-csv"}); err != nil {
		t.Errorf("table 6 csv: %v", err)
	}
}

func TestRunUnknownTable(t *testing.T) {
	if err := run([]string{"-table", "99"}); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestRunHelpSucceeds: -h prints usage and is no error, so dqtables -h
// exits 0.
func TestRunHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run -h = %v, want nil", err)
	}
}
