package check

import (
	"fmt"
	"strings"
	"testing"

	"dqalloc/internal/fault"
	"dqalloc/internal/sim"
)

// ledgerCase is one row of the identity table: the ledger and fail-slow
// totals as they stand at an event boundary after the given population
// hooks, and a substring of the violation the auditor must latch ("" when
// the state balances). test names the top-level test that runs the row.
type ledgerCase struct {
	test, name               string
	capacity                 int // closed population; 0 = open
	submit, complete, reject int
	led                      Ledger
	slow                     fault.SlowTotals
	want                     string
}

// ledgerCases breaks each identity exactly once, next to a balanced state
// of the same identity.
var ledgerCases = []ledgerCase{
	// Fault: preempted losses (hedge wins or deadline aborts of lost
	// queries) are the fourth resolution channel.
	{test: "TestPreemptedBalancesFaultLedger", name: "balanced", capacity: 4,
		led: Ledger{Lost: 5, Retried: 2, Abandoned: 1, Preempted: 2}},
	{test: "TestPreemptedBalancesFaultLedger", name: "unbalanced", capacity: 4,
		led: Ledger{Lost: 5, Retried: 2, Abandoned: 1, Preempted: 1}, want: "preempted"},

	// Admission: one query admitted and completed, one deferred then
	// resubmitted and completed, one shed.
	{test: "TestAdmissionConservationCleanRun", name: "clean", capacity: 4, submit: 3, complete: 2, reject: 1,
		led: Ledger{Deferred: 1, Resubmitted: 1, Shed: 1}},
	{test: "TestAdmissionConservationViolations", name: "leakedDeferral", capacity: 4,
		led: Ledger{Deferred: 2, Resubmitted: 1}, want: "deferred"},
	{test: "TestAdmissionConservationViolations", name: "negativeWaiting", capacity: 4,
		led: Ledger{Waiting: -1}, want: "negative waiting"},
	{test: "TestAdmissionConservationViolations", name: "shedWithoutRejection", capacity: 4, submit: 1,
		led: Ledger{Shed: 1}, want: "sheds exceed"},
	{test: "TestAdmissionConservationViolations", name: "populationExceeded", capacity: 2, submit: 3,
		want: "closed population"},
	{test: "TestAdmissionConservationViolations", name: "uncoveredCompletion", capacity: 2, complete: 1,
		want: "exceed 0 submissions"},
	// Deadline aborts of parked queries are the third resolution channel
	// for deferrals.
	{test: "TestAbortedBalancesAdmissionLedger", name: "balanced", capacity: 4, submit: 1,
		led: Ledger{Deferred: 4, Resubmitted: 2, Waiting: 1, Aborted: 1}},
	{test: "TestAbortedBalancesAdmissionLedger", name: "unbalanced", capacity: 4, submit: 1,
		led: Ledger{Deferred: 4, Resubmitted: 2, Waiting: 1}, want: "deferred"},

	// Deadline and hedge.
	{test: "TestDeadlineConservation", name: "balanced ledger passes", led: Ledger{
		Armed: 10, Met: 5, Missed: 2, Cancelled: 1, Pending: 2,
		Hedges: 4, HedgeWins: 1, HedgeCancelled: 2, Racing: 1,
	}},
	{test: "TestDeadlineConservation", name: "leaked watchdog fails",
		led: Ledger{Armed: 3, Met: 1, Pending: 1}, want: "armed"},
	{test: "TestDeadlineConservation", name: "leaked clone fails",
		led: Ledger{Hedges: 2, HedgeWins: 1}, want: "hedges"},
	{test: "TestDeadlineConservation", name: "negative pendings fail",
		led: Ledger{Pending: -1}, want: "negative pending-deadline"},

	// Operator spawn and commit/release.
	{test: "TestOperatorConservation", name: "balanced ledger passes", led: Ledger{
		Ops: 12, OpsCompleted: 7, OpsAborted: 2, OpsPreempted: 1, OpsInFlight: 2,
		Commits: 12, Releases: 10, TableLive: 2,
	}},
	{test: "TestOperatorConservation", name: "leaked operator fails",
		led: Ledger{Ops: 5, OpsCompleted: 3, OpsInFlight: 1}, want: "spawned"},
	{test: "TestOperatorConservation", name: "leaked commitment fails",
		led: Ledger{Commits: 4, Releases: 2, TableLive: 1}, want: "leak or double release"},
	{test: "TestOperatorConservation", name: "double release fails",
		led: Ledger{TableLive: -1}, want: "double release"},
	{test: "TestOperatorConservation", name: "negative in-flight fails",
		led: Ledger{OpsInFlight: -1}, want: "negative operator in-flight"},
	{test: "TestOperatorConservation", name: "first violation sticks",
		led: Ledger{Ops: 1}, want: "spawned"},

	// Capacity 0 means an open population: the in-flight bound is waived
	// while the other identities keep applying.
	{test: "TestOpenCapacityUnbounded", name: "open", submit: 100},
	{test: "TestOpenCapacityUnbounded", name: "open ledger still checked", submit: 100,
		led: Ledger{Lost: 1}, want: "lost"},
	{test: "TestOpenCapacityUnbounded", name: "negative capacity", capacity: -1,
		want: "negative conservation capacity"},

	// The remaining identities and censuses.
	{test: "TestLedgerIdentities", name: "deadline operator releases",
		led: Ledger{DeadlineOpAborts: 2, DeadlineOpReleases: 1}, want: "deadline-aborted"},
	{test: "TestLedgerIdentities", name: "deadline operator releases balanced",
		led: Ledger{DeadlineOpAborts: 2, DeadlineOpReleases: 2}},
	{test: "TestLedgerIdentities", name: "slow pairings balanced", slow: fault.SlowTotals{
		Episodes: 3, Recoveries: 2, Degraded: 1, Brownouts: 2, BrownoutEnds: 1, BrownoutActive: true,
	}},
	{test: "TestLedgerIdentities", name: "slow episodes",
		slow: fault.SlowTotals{Episodes: 3, Recoveries: 1, Degraded: 1}, want: "slow episodes"},
	{test: "TestLedgerIdentities", name: "brownouts",
		slow: fault.SlowTotals{Brownouts: 2, BrownoutEnds: 0, BrownoutActive: true}, want: "brownouts"},
	{test: "TestLedgerIdentities", name: "negative pending recovery",
		led: Ledger{PendingRecovery: -1}, want: "negative pending-recovery"},
	{test: "TestLedgerIdentities", name: "negative racing",
		led: Ledger{Racing: -1}, want: "negative racing-clone"},
	{test: "TestLedgerIdentities", name: "closed population bound", capacity: 4, submit: 5,
		want: "closed population"},
}

// slowTotals is a fixed SlowLedger.
type slowTotals fault.SlowTotals

func (s *slowTotals) Totals() fault.SlowTotals { return fault.SlowTotals(*s) }

// audit drives a Conservation auditor through the row: the population
// hooks, a fail-slow transition, the following event boundary and
// Finalize. A construction panic is returned as the violation.
func (tc ledgerCase) audit() (c *Conservation, led *Ledger, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	led = new(Ledger)
	*led = tc.led
	slow := slowTotals(tc.slow)
	c = NewConservation(tc.capacity, led, &slow, func() int { return 0 }, nil)
	for i := 0; i < tc.submit; i++ {
		c.Submitted(1)
	}
	for i := 0; i < tc.complete; i++ {
		c.Completed(2)
	}
	for i := 0; i < tc.reject; i++ {
		c.Rejected(2)
	}
	c.EventFired(&sim.Event{Kind: fault.EventKindSlowOn})
	c.EventFired(&sim.Event{})
	c.Finalize(Final{End: 3})
	return c, led, c.Err()
}

// runLedgerCases runs the rows belonging to the calling top-level test.
// Each failing row's violation must stay latched once the ledger
// balances again.
func runLedgerCases(t *testing.T) {
	rows := 0
	for _, tc := range ledgerCases {
		if tc.test != t.Name() {
			continue
		}
		rows++
		t.Run(tc.name, func(t *testing.T) {
			c, led, err := tc.audit()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("balanced state flagged: %v", err)
			case tc.want == "":
				return
			case err == nil || !strings.Contains(err.Error(), tc.want):
				t.Fatalf("violation %v, want one mentioning %q", err, tc.want)
			case c == nil:
				return // construction refused
			}
			*led = Ledger{}
			c.EventFired(&sim.Event{})
			c.Finalize(Final{End: 4})
			if c.Err() != err {
				t.Fatalf("later balanced checks replaced the latched violation: %v", c.Err())
			}
		})
	}
	if rows == 0 {
		t.Fatal("no ledger rows for this test")
	}
}

func TestLedgerIdentities(t *testing.T)                { runLedgerCases(t) }
func TestPreemptedBalancesFaultLedger(t *testing.T)    { runLedgerCases(t) }
func TestAdmissionConservationCleanRun(t *testing.T)   { runLedgerCases(t) }
func TestAdmissionConservationViolations(t *testing.T) { runLedgerCases(t) }
func TestAbortedBalancesAdmissionLedger(t *testing.T)  { runLedgerCases(t) }
func TestDeadlineConservation(t *testing.T)            { runLedgerCases(t) }
func TestOperatorConservation(t *testing.T)            { runLedgerCases(t) }
func TestOpenCapacityUnbounded(t *testing.T)           { runLedgerCases(t) }

// TestSlowPairingChecksAfterTransitions: the fail-slow pairings are read
// only at the event boundary after a fail-slow or brownout transition
// (and at Finalize), not on every event.
func TestSlowPairingChecksAfterTransitions(t *testing.T) {
	slow := slowTotals{Episodes: 1}
	c := NewConservation(0, &Ledger{}, &slow, func() int { return 0 }, nil)
	c.EventFired(&sim.Event{})
	c.EventFired(&sim.Event{Kind: fault.EventKindBrownoutOff})
	if err := c.Err(); err != nil {
		t.Fatalf("slow pairing read before a transition ran: %v", err)
	}
	c.EventFired(&sim.Event{})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "slow episodes") {
		t.Fatalf("unpaired episode after a transition not flagged: %v", err)
	}

	c = NewConservation(0, &Ledger{}, &slow, func() int { return 0 }, nil)
	c.Finalize(Final{End: 1})
	if c.Err() == nil {
		t.Fatal("unpaired episode not flagged at Finalize")
	}
}
