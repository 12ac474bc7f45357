// Command dqtables regenerates the paper's evaluation tables.
//
// Usage:
//
//	dqtables                 # all tables at the quick budget
//	dqtables -table 8 -full  # Table 8 at the EXPERIMENTS.md budget
//	dqtables -table 12 -csv  # CSV output for plotting
//
// Paper tables: 5 (WIF grid), 6 (FIF grid), 8 (W̄ vs think time), msg
// (msg_length variant), 9 (W̄ vs mpl), 10 (max mpl vs response), 11 (W̄
// and subnet vs sites), 12 (W̄ and F vs class mix). Extension tables
// (run by name, or all of them with -table ext): repl (partial
// replication), mig (migration ablation), stale (load-info staleness),
// probe (limited information), hetero (CPU speed profiles).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dqalloc/internal/exper"
	"dqalloc/internal/policy"
	"dqalloc/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqtables:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqtables", flag.ContinueOnError)
	var (
		table = fs.String("table", "all", "table to regenerate: 5, 6, 8, msg, 9, 10, 11, 12, repl, mig, stale, probe, hetero, all")
		full  = fs.Bool("full", false, "use the full replication budget (slower)")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage is printed; asking for it is no failure
		}
		return err
	}
	r := exper.Quick()
	if *full {
		r = exper.Full()
	}
	// Replications run on every core; results are identical to serial.
	r.Parallel = true

	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}

	// "all" regenerates the paper tables; extensions run only by name
	// (they are recorded separately in EXPERIMENTS.md).
	want := func(name string) bool { return *table == "all" || *table == name }
	wantExt := func(name string) bool { return *table == name || *table == "ext" }
	ran := false

	if want("5") {
		rows, err := exper.Table5()
		if err != nil {
			return err
		}
		emit(report.FactorGrid("Table 5: Waiting Improvement Factor WIF(L,i)", rows))
		ran = true
	}
	if want("6") {
		rows, err := exper.Table6()
		if err != nil {
			return err
		}
		emit(report.FactorGrid("Table 6: Fairness Improvement Factor FIF(L,i)", rows))
		ran = true
	}
	if want("8") {
		rows, err := exper.Table8(r)
		if err != nil {
			return err
		}
		emit(report.ImprovementTable("Table 8: Waiting time versus think time", "think_time", rows))
		ran = true
	}
	if want("msg") {
		var rows []exper.MsgLengthRow
		for _, ml := range []float64{1.0, 2.0} {
			row, err := exper.TableMsgLength(r, ml)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		emit(report.MsgLengthTable(rows))
		ran = true
	}
	if want("9") {
		rows, err := exper.Table9(r)
		if err != nil {
			return err
		}
		emit(report.ImprovementTable("Table 9: Waiting time versus mpl", "mpl", rows))
		ran = true
	}
	if want("10") {
		rows, err := exper.Table10(r)
		if err != nil {
			return err
		}
		emit(report.CapacityTable(rows))
		ran = true
	}
	if want("11") {
		rows, err := exper.Table11(r)
		if err != nil {
			return err
		}
		emit(report.SitesTable(rows))
		ran = true
	}
	if want("12") {
		rows, err := exper.Table12(r)
		if err != nil {
			return err
		}
		emit(report.FairnessTable(rows))
		ran = true
	}
	if wantExt("repl") {
		rows, err := exper.ReplicationSweep(r, 60)
		if err != nil {
			return err
		}
		emit(report.ReplicationTable(rows))
		ran = true
	}
	if wantExt("mig") {
		rows, err := exper.MigrationAblation(r, []policy.Kind{policy.Local, policy.BNQ, policy.LERT})
		if err != nil {
			return err
		}
		emit(report.MigrationTable(rows))
		ran = true
	}
	if wantExt("stale") {
		rows, err := exper.StalenessSweep(r, []float64{0, 10, 25, 50, 100, 200, 400, 800})
		if err != nil {
			return err
		}
		emit(report.StalenessTable(rows))
		ran = true
	}
	if wantExt("probe") {
		rows, err := exper.ProbeSweep(r, []int{1, 2, 3, 5})
		if err != nil {
			return err
		}
		emit(report.ProbeTable(rows))
		ran = true
	}
	if wantExt("hetero") {
		rows, err := exper.HeterogeneitySweep(r)
		if err != nil {
			return err
		}
		emit(report.HeterogeneityTable(rows))
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}
