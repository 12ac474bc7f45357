package check

import (
	"strings"
	"testing"

	"dqalloc/internal/sim"
)

func TestConservationCleanRun(t *testing.T) {
	table := 0
	sites := []SiteCounts{{Active: 0, AtCPU: 0, AtDisk: 0}}
	c := NewConservation(4, nil, nil, func() int { return table }, func(buf []SiteCounts) []SiteCounts {
		return append(buf, sites...)
	})
	// Two queries flow through: submit (table entry + site admission),
	// execute, complete.
	table, sites[0] = 1, SiteCounts{Active: 1, AtCPU: 0, AtDisk: 1}
	c.Submitted(1)
	table, sites[0] = 2, SiteCounts{Active: 2, AtCPU: 1, AtDisk: 1}
	c.Submitted(2)
	table, sites[0] = 1, SiteCounts{Active: 1, AtCPU: 1, AtDisk: 0}
	c.Completed(3)
	table, sites[0] = 0, SiteCounts{}
	c.Completed(4)
	if err := c.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if c.InFlight() != 0 {
		t.Errorf("in-flight = %d, want 0", c.InFlight())
	}
}

func TestConservationViolations(t *testing.T) {
	t.Run("completionWithoutSubmission", func(t *testing.T) {
		c := NewConservation(4, nil, nil, func() int { return 0 }, nil)
		c.Completed(1)
		if c.Err() == nil {
			t.Fatal("uncovered completion not flagged")
		}
	})
	t.Run("populationExceeded", func(t *testing.T) {
		c := NewConservation(2, nil, nil, func() int { return 0 }, nil)
		for i := 0; i < 3; i++ {
			c.Submitted(float64(i))
		}
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "closed population") {
			t.Fatalf("population overflow not flagged: %v", c.Err())
		}
	})
	t.Run("tableAboveInflight", func(t *testing.T) {
		c := NewConservation(4, nil, nil, func() int { return 2 }, nil)
		c.Submitted(1)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "load table") {
			t.Fatalf("table/in-flight mismatch not flagged: %v", c.Err())
		}
	})
	t.Run("siteCensusMismatch", func(t *testing.T) {
		c := NewConservation(4, nil, nil, func() int { return 1 },
			func(buf []SiteCounts) []SiteCounts {
				return append(buf, SiteCounts{Active: 1, AtCPU: 0, AtDisk: 0})
			})
		c.Submitted(1)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "active") {
			t.Fatalf("census mismatch not flagged: %v", c.Err())
		}
	})
	t.Run("activeAboveTable", func(t *testing.T) {
		c := NewConservation(4, nil, nil, func() int { return 0 },
			func(buf []SiteCounts) []SiteCounts {
				return append(buf, SiteCounts{Active: 1, AtCPU: 1, AtDisk: 0})
			})
		c.Submitted(1)
		if c.Err() == nil || !strings.Contains(c.Err().Error(), "active at sites") {
			t.Fatalf("active>table not flagged: %v", c.Err())
		}
	})
}

func TestUtilizationBounds(t *testing.T) {
	u := NewUtilization()
	u.Finalize(Final{CPUUtil: []float64{0.4, 1.0}, DiskUtil: []float64{0, 0.99}, SubnetUtil: 0.2})
	if err := u.Err(); err != nil {
		t.Fatalf("valid utilizations flagged: %v", err)
	}
	u = NewUtilization()
	u.Finalize(Final{CPUUtil: []float64{1.5}})
	if u.Err() == nil {
		t.Error("cpu utilization 1.5 not flagged")
	}
	u = NewUtilization()
	u.Finalize(Final{DiskUtil: []float64{-0.2}})
	if u.Err() == nil {
		t.Error("negative disk utilization not flagged")
	}
	u = NewUtilization()
	u.Finalize(Final{SubnetUtil: 2})
	if u.Err() == nil {
		t.Error("subnet utilization 2 not flagged")
	}
}

// TestLittlesLawHolds feeds a synthetic deterministic stream where the
// law holds exactly: one query in flight half the time (W = 1, λ = 0.5).
func TestLittlesLawHolds(t *testing.T) {
	l := NewLittlesLaw()
	l.MeasureStarted(0)
	n := uint64(0)
	for start := 0.0; start < 1000; start += 2 {
		l.Submitted(start)
		l.Completed(start + 1)
		n++
	}
	l.Finalize(Final{Start: 0, End: 1000, Completed: n, MeanResponse: 1})
	if err := l.Err(); err != nil {
		t.Fatalf("exact Little's-law stream flagged: %v", err)
	}
}

func TestLittlesLawViolation(t *testing.T) {
	l := NewLittlesLaw()
	l.MeasureStarted(0)
	n := uint64(0)
	for start := 0.0; start < 1000; start += 2 {
		l.Submitted(start)
		l.Completed(start + 1)
		n++
	}
	// Claimed response time 10 contradicts the observed N̄ of 0.5.
	l.Finalize(Final{Start: 0, End: 1000, Completed: n, MeanResponse: 10})
	if l.Err() == nil {
		t.Fatal("inconsistent response time not flagged")
	}
}

func TestLittlesLawSkipsSmallSamples(t *testing.T) {
	l := NewLittlesLaw()
	l.MeasureStarted(0)
	l.Submitted(1)
	// Wildly inconsistent, but only one completion: below MinSamples.
	l.Completed(2)
	l.Finalize(Final{Start: 0, End: 10, Completed: 1, MeanResponse: 500})
	if err := l.Err(); err != nil {
		t.Fatalf("sub-minimum sample flagged: %v", err)
	}
}

func TestLittlesLawSkipsShortWindows(t *testing.T) {
	l := NewLittlesLaw()
	l.MeasureStarted(0)
	n := uint64(0)
	for start := 0.0; start < 1000; start += 2 {
		l.Submitted(start)
		l.Completed(start + 1)
		n++
	}
	// Inconsistent, but the claimed response time makes the window only
	// 1000/50 = 20 response times long: boundary effects dominate.
	l.Finalize(Final{Start: 0, End: 1000, Completed: n, MeanResponse: 50})
	if err := l.Err(); err != nil {
		t.Fatalf("short-window check not skipped: %v", err)
	}
}

func TestMonotonicity(t *testing.T) {
	m := NewMonotonicity()
	m.observe(1, 0)
	m.observe(1, 3)
	m.observe(2.5, 1)
	if err := m.Err(); err != nil {
		t.Fatalf("ordered stream flagged: %v", err)
	}
	if m.Events() != 3 {
		t.Errorf("events = %d, want 3", m.Events())
	}

	back := NewMonotonicity()
	back.observe(2, 0)
	back.observe(1, 1)
	if back.Err() == nil {
		t.Error("clock regression not flagged")
	}

	fifo := NewMonotonicity()
	fifo.observe(1, 5)
	fifo.observe(1, 2)
	if fifo.Err() == nil {
		t.Error("same-instant FIFO inversion not flagged")
	}
}

// fakeRing is a RingCounters with settable values.
type fakeRing struct {
	sent, delivered, dropped uint64
	pending                  int
}

func (f *fakeRing) Sent() uint64           { return f.sent }
func (f *fakeRing) TotalDelivered() uint64 { return f.delivered }
func (f *fakeRing) TotalDropped() uint64   { return f.dropped }
func (f *fakeRing) Pending() int           { return f.pending }

func TestRingConservation(t *testing.T) {
	ring := &fakeRing{sent: 10, delivered: 7, pending: 3}
	r := NewRingConservation(ring)
	r.check(1)
	if err := r.Err(); err != nil {
		t.Fatalf("balanced ring flagged: %v", err)
	}

	ring.delivered = 8 // lost message: 10 != 8 + 3
	r2 := NewRingConservation(ring)
	r2.check(2)
	if r2.Err() == nil {
		t.Error("message leak not flagged")
	}

	r3 := NewRingConservation(&fakeRing{pending: -1})
	r3.check(3)
	if r3.Err() == nil {
		t.Error("negative pending not flagged")
	}
}

// TestSetDispatch wires a Set to a live scheduler and checks hooks reach
// the right auditors and the first violation wins.
func TestSetDispatch(t *testing.T) {
	mono := NewMonotonicity()
	util := NewUtilization()
	set := NewSet(mono, util)

	sched := sim.New()
	sched.Observe(set.EventFired)
	for i := 0; i < 5; i++ {
		sched.After(float64(i), func() {})
	}
	sched.Run()
	if mono.Events() != 5 {
		t.Errorf("monotonicity saw %d events, want 5", mono.Events())
	}
	if err := set.Err(); err != nil {
		t.Fatalf("clean dispatch flagged: %v", err)
	}

	// A finalize-time violation surfaces through the set.
	if err := set.Finalize(Final{CPUUtil: []float64{7}}); err == nil {
		t.Error("set missed the utilization violation")
	}
	if len(set.Auditors()) != 2 {
		t.Errorf("Auditors() = %d entries, want 2", len(set.Auditors()))
	}
}

// TestAuditorNames pins the names used in violation triage.
func TestAuditorNames(t *testing.T) {
	names := []string{
		NewConservation(1, nil, nil, func() int { return 0 }, nil).Name(),
		NewUtilization().Name(),
		NewLittlesLaw().Name(),
		NewMonotonicity().Name(),
		NewRingConservation(&fakeRing{}).Name(),
	}
	want := []string{"conservation", "utilization", "littles-law", "monotonicity", "ring-conservation"}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("auditor %d name = %q, want %q", i, n, want[i])
		}
	}
}
