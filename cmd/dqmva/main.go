// Command dqmva runs the Section-3 optimal-allocation analysis for one
// arrival condition A(L, i): it prints the expected per-cycle waiting
// time and system fairness of every candidate allocation, the optimal
// and BNQ choices, and the WIF/FIF factors.
//
// Usage:
//
//	dqmva -cpu1 0.05 -cpu2 1.0 -load "1,1,0,0/0,0,1,1" -class 1
//
// The load matrix lists class-1 counts per site, then class-2 counts,
// separated by '/'.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dqalloc/internal/optimal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqmva:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqmva", flag.ContinueOnError)
	var (
		cpu1  = fs.Float64("cpu1", 0.05, "class-1 per-cycle CPU demand")
		cpu2  = fs.Float64("cpu2", 1.0, "class-2 per-cycle CPU demand")
		disks = fs.Int("disks", 2, "disks per site")
		load  = fs.String("load", "1,1,0,0/0,0,1,1", "load matrix: class-1 counts / class-2 counts")
		class = fs.Int("class", 1, "arriving query's class (1 or 2)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage is printed; asking for it is no failure
		}
		return err
	}

	l, err := parseLoad(*load)
	if err != nil {
		return err
	}
	if *class != 1 && *class != 2 {
		return fmt.Errorf("class must be 1 or 2, got %d", *class)
	}
	p := optimal.Params{
		NumSites: len(l[0]),
		NumDisks: *disks,
		DiskTime: 1,
		PageCPU:  []float64{*cpu1, *cpu2},
	}
	a, err := optimal.Evaluate(p, l, *class-1)
	if err != nil {
		return err
	}

	fmt.Printf("arrival A(L, %d) with cpu demands %v/%v, %d sites x %d disks\n",
		*class, *cpu1, *cpu2, p.NumSites, p.NumDisks)
	fmt.Printf("site totals %v (QD = %d)\n\n", l.SiteTotals(), l.QueryDifference())
	fmt.Println("allocation   arrival-wait/cycle   system |W1^-W2^|")
	for _, o := range a.Outcomes {
		marks := ""
		if o.Site == a.OptWaitSite {
			marks += " <-min wait"
		}
		if o.Site == a.OptFairSite {
			marks += " <-min unfairness"
		}
		fmt.Printf("  site %d %18.4f %18.4f%s\n", o.Site+1, o.ArrivalWait, o.Fairness, marks)
	}
	bnq := make([]string, len(a.BNQSites))
	for i, s := range a.BNQSites {
		bnq[i] = strconv.Itoa(s + 1)
	}
	fmt.Printf("\nBNQ candidates: sites %s\n", strings.Join(bnq, ","))
	fmt.Printf("W_BNQ = %.4f  W_OPT = %.4f  WIF = %.2f\n", a.WaitBNQ, a.WaitOpt, a.WIF())
	fmt.Printf("F_BNQ = %.4f  F_OPT = %.4f  FIF = %.2f\n", a.FairBNQ, a.FairOpt, a.FIF())
	return nil
}

// parseLoad parses "1,1,0,0/0,0,1,1" into a LoadMatrix.
func parseLoad(s string) (optimal.LoadMatrix, error) {
	rows := strings.Split(s, "/")
	if len(rows) != 2 {
		return nil, fmt.Errorf("load matrix needs two '/'-separated class rows, got %d", len(rows))
	}
	var l optimal.LoadMatrix
	width := -1
	for _, row := range rows {
		cells := strings.Split(row, ",")
		if width == -1 {
			width = len(cells)
		} else if len(cells) != width {
			return nil, fmt.Errorf("load rows have different widths")
		}
		vals := make([]int, 0, len(cells))
		for _, c := range cells {
			v, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				return nil, fmt.Errorf("bad load count %q: %w", c, err)
			}
			vals = append(vals, v)
		}
		l = append(l, vals)
	}
	return l, nil
}
