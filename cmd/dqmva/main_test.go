package main

import "testing"

func TestParseLoad(t *testing.T) {
	l, err := parseLoad("2,1,0,0/0,0,1,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 || len(l[0]) != 4 {
		t.Fatalf("shape = %dx%d", len(l), len(l[0]))
	}
	if l[0][0] != 2 || l[1][3] != 1 {
		t.Errorf("values = %v", l)
	}
	// Whitespace tolerated.
	if _, err := parseLoad("1, 1/0 ,0"); err != nil {
		t.Errorf("whitespace rejected: %v", err)
	}
}

func TestParseLoadErrors(t *testing.T) {
	for _, bad := range []string{
		"1,1,1,1",     // one row
		"1,1/1",       // ragged
		"1,x/0,0",     // non-numeric
		"1,1/0,0/1,1", // three rows
	} {
		if _, err := parseLoad(bad); err == nil {
			t.Errorf("parseLoad(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-class", "3"}); err == nil {
		t.Error("class 3 accepted")
	}
	if err := run([]string{"-load", "garbage"}); err == nil {
		t.Error("garbage load accepted")
	}
}

func TestRunHappyPath(t *testing.T) {
	if err := run([]string{"-load", "1,1,0,0/0,0,1,1", "-class", "1"}); err != nil {
		t.Errorf("default analysis failed: %v", err)
	}
}

// TestRunHelpSucceeds: -h prints usage and is no error, so dqmva -h
// exits 0.
func TestRunHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run -h = %v, want nil", err)
	}
}
