package check

import (
	"fmt"

	"dqalloc/internal/fault"
)

// Ledger is the query lifecycle's one set of counters. The system owns it
// by value and bumps it in place at each fault, admission, deadline, hedge
// and operator transition; Conservation reads it through a pointer and
// checks its identities at every event boundary. A disabled subsystem's
// counters stay zero, which balances its identities trivially.
type Ledger struct {
	// Lost counts execution losses (site crashes, dropped ship/result
	// messages). Each is Retried by its watchdog, Abandoned when the retry
	// budget runs out (also a rejection), Preempted when a hedge win or a
	// deadline abort resolves it first, or still PendingRecovery.
	Lost, Retried, Abandoned, Preempted uint64
	PendingRecovery                     int

	// Deferred counts admission bounces parked for a delayed resubmission.
	// Each is Resubmitted, Aborted by a deadline while parked, or still
	// Waiting. Shed counts queries admission rejected outright (each also
	// a rejection).
	Deferred, Resubmitted, Aborted, Shed uint64
	Waiting                              int

	// Armed counts deadline watchdogs, one per query. Each is Met by a
	// completion, Missed (aborting its query), Cancelled by a rejection
	// path, or still Pending.
	Armed, Met, Missed, Cancelled uint64
	Pending                       int

	// Hedges counts clones launched. Each wins its race (HedgeWins), is
	// cancelled or destroyed by a fault (HedgeCancelled), or is still
	// Racing.
	Hedges, HedgeWins, HedgeCancelled uint64
	Racing                            int

	// Ops counts operator attempts dispatched, primaries and clones. Each
	// completes, is aborted (deadline abort, plan collapse, lost race), is
	// preempted by a fault, or is still in flight.
	Ops, OpsCompleted, OpsAborted, OpsPreempted uint64
	OpsInFlight                                 int

	// Commits and Releases count the load-table commitments operator
	// attempts made and released; TableLive is the difference now. Their
	// balance proves each commitment is released exactly once.
	Commits, Releases uint64
	TableLive         int

	// DeadlineOpAborts counts operator attempts a deadline abort withdrew
	// and DeadlineOpReleases the commitments those withdrawals released:
	// exactly one each.
	DeadlineOpAborts, DeadlineOpReleases uint64

	// QueriesLive, PlansLive and the two Stranded counts census the
	// records the system holds: logical queries submitted and not yet
	// completed or rejected, tracked or untracked, multi-operator plans
	// started and not yet completed or collapsed, and attempt and plan
	// records already retired but still owed a delivery (a withdrawn
	// attempt's message or resubmission, a collapsed plan's shipment).
	QueriesLive, PlansLive          int
	StrandedAttempts, StrandedPlans int
}

// balance returns the first identity the ledger breaks, or nil. rejected
// is the auditor's observed rejection count, which bounds Shed.
func (l *Ledger) balance(rejected uint64) error {
	switch {
	case l.PendingRecovery < 0:
		return fmt.Errorf("negative pending-recovery count %d", l.PendingRecovery)
	case l.Lost != l.Retried+l.Abandoned+l.Preempted+uint64(l.PendingRecovery):
		return fmt.Errorf("%d lost != %d retried + %d abandoned + %d preempted + %d pending recovery",
			l.Lost, l.Retried, l.Abandoned, l.Preempted, l.PendingRecovery)
	case l.Waiting < 0:
		return fmt.Errorf("negative waiting count %d", l.Waiting)
	case l.Deferred != l.Resubmitted+l.Aborted+uint64(l.Waiting):
		return fmt.Errorf("%d deferred != %d resubmitted + %d aborted + %d waiting",
			l.Deferred, l.Resubmitted, l.Aborted, l.Waiting)
	case l.Shed > rejected:
		return fmt.Errorf("%d sheds exceed %d observed rejections", l.Shed, rejected)
	case l.Pending < 0:
		return fmt.Errorf("negative pending-deadline count %d", l.Pending)
	case l.Armed != l.Met+l.Missed+l.Cancelled+uint64(l.Pending):
		return fmt.Errorf("%d armed != %d met + %d missed + %d cancelled + %d pending",
			l.Armed, l.Met, l.Missed, l.Cancelled, l.Pending)
	case l.Racing < 0:
		return fmt.Errorf("negative racing-clone count %d", l.Racing)
	case l.Hedges != l.HedgeWins+l.HedgeCancelled+uint64(l.Racing):
		return fmt.Errorf("%d hedges != %d wins + %d cancelled + %d racing",
			l.Hedges, l.HedgeWins, l.HedgeCancelled, l.Racing)
	case l.OpsInFlight < 0:
		return fmt.Errorf("negative operator in-flight count %d", l.OpsInFlight)
	case l.Ops != l.OpsCompleted+l.OpsAborted+l.OpsPreempted+uint64(l.OpsInFlight):
		return fmt.Errorf("%d operators spawned != %d completed + %d aborted + %d preempted + %d in flight",
			l.Ops, l.OpsCompleted, l.OpsAborted, l.OpsPreempted, l.OpsInFlight)
	case l.TableLive < 0:
		return fmt.Errorf("negative live-commitment count %d (double release)", l.TableLive)
	case l.Commits != l.Releases+uint64(l.TableLive):
		return fmt.Errorf("%d commitments != %d releases + %d live (leak or double release)",
			l.Commits, l.Releases, l.TableLive)
	case l.QueriesLive < 0 || l.PlansLive < 0 || l.StrandedAttempts < 0 || l.StrandedPlans < 0:
		return fmt.Errorf("negative record census: %d queries, %d plans live; %d attempts, %d plans stranded",
			l.QueriesLive, l.PlansLive, l.StrandedAttempts, l.StrandedPlans)
	case l.DeadlineOpAborts != l.DeadlineOpReleases:
		return fmt.Errorf("%d deadline-aborted operators released %d load-table entries (want exactly one each)",
			l.DeadlineOpAborts, l.DeadlineOpReleases)
	}
	return nil
}

// SlowLedger is the fail-slow layer's episode ledger;
// *fault.SlowInjector implements it.
type SlowLedger interface {
	Totals() fault.SlowTotals
}

// slowBalance returns the first fail-slow pairing t breaks, or nil: every
// episode is recovered or still open, and so is every ring brownout. An
// imbalance means a site was left degraded (or restored) without its
// ledger knowing, corrupting every degraded-time and suspicion statistic.
func slowBalance(t fault.SlowTotals) error {
	open := uint64(0)
	if t.BrownoutActive {
		open = 1
	}
	switch {
	case t.Episodes != t.Recoveries+uint64(t.Degraded):
		return fmt.Errorf("%d slow episodes != %d recoveries + %d degraded", t.Episodes, t.Recoveries, t.Degraded)
	case t.Brownouts != t.BrownoutEnds+open:
		return fmt.Errorf("%d brownouts != %d ends + %d open", t.Brownouts, t.BrownoutEnds, open)
	}
	return nil
}
