package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readReports reads a file of run reports, one JSON object per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		reps = append(reps, r)
	}
	return reps, sc.Err()
}

// verdict judges the change's runs of one metric against the base's by
// the metric's bound, a share of the base median. It is "unresolved"
// when either side's interquartile range exceeds the bound, unless every
// change run beats every base run.
func verdict(base, change []float64, bound float64, higherBetter bool) string {
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(change)
	if (bq3-bq1)/math.Abs(bm) > bound || (cq3-cq1)/math.Abs(cm) > bound {
		if allBetter(base, change, higherBetter) {
			return "better"
		}
		return "unresolved"
	}
	worse := (cm - bm) / math.Abs(bm)
	if higherBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "unchanged"
}

// allBetter reports whether every change value beats every base value.
func allBetter(base, change []float64, higherBetter bool) bool {
	b, c := sorted(base), sorted(change)
	if higherBetter {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// compare prints, for every workload both files ran untraced, each
// end-to-end metric's median and quartiles on both sides with its
// verdict, then any behavioral drift: a seed whose Results fingerprint
// differs between the sides, or whose sim.events does.
func compare(w io.Writer, sp *spec, basePath, changePath string) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	change, err := readReports(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-8s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1 q3] (n)", "change median [q1 q3] (n)", "change", "verdict")
	for _, wl := range sp.Workloads {
		b, c := pick(base, wl.Name, false), pick(change, wl.Name, false)
		if len(b) == 0 || len(c) == 0 {
			if len(b)+len(c) > 0 {
				fmt.Fprintf(w, "%-8s untraced runs on one side only\n", wl.Name)
			}
			continue
		}
		for _, m := range sp.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-8s %-8s missing on one side\n", wl.Name, m.Name)
				continue
			}
			_, bm, _ := quartiles(bv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(w, "%-8s %-8s %-36s %-36s %+7.1f%%  %s\n", wl.Name, m.Name,
				summary(bv), summary(cv), 100*(cm-bm)/math.Abs(bm),
				verdict(bv, cv, m.Bound, m.Better == "higher"))
		}
	}
	for _, wl := range sp.Workloads {
		for _, d := range drift(pick(base, wl.Name, true), pick(change, wl.Name, true)) {
			fmt.Fprintf(w, "%-8s behavior drift: %s\n", wl.Name, d)
		}
	}
	return nil
}

// pick returns the correct runs of a workload; anyMode takes traced runs
// too.
func pick(reps []report, workload string, anyMode bool) []report {
	var out []report
	for _, r := range reps {
		if r.Workload == workload && r.Correct && (anyMode || !r.Trace) {
			out = append(out, r)
		}
	}
	return out
}

func values(reps []report, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", m, q1, q3, len(xs))
}

// drift lists the seeds whose behavioral checksums differ between the
// two sides.
func drift(base, change []report) []string {
	type sums struct{ fp, events map[string]bool }
	collect := func(reps []report) map[uint64]sums {
		m := map[uint64]sums{}
		for _, r := range reps {
			s, ok := m[r.Seed]
			if !ok {
				s = sums{map[string]bool{}, map[string]bool{}}
				m[r.Seed] = s
			}
			if r.Fingerprint != "" {
				s.fp[r.Fingerprint] = true
			}
			for _, src := range []map[string]metric{r.Metrics, r.Diag} {
				if ev, ok := src["sim.events"]; ok {
					s.events[fmt.Sprint(ev.Value)] = true
				}
			}
		}
		return m
	}
	b, c := collect(base), collect(change)
	var out []string
	for seed, bs := range b {
		cs, ok := c[seed]
		if !ok {
			continue
		}
		if len(bs.fp) > 0 && len(cs.fp) > 0 && !sameSet(bs.fp, cs.fp) {
			out = append(out, fmt.Sprintf("seed %d: Results fingerprint %v -> %v", seed, keys(bs.fp), keys(cs.fp)))
		}
		if len(bs.events) > 0 && len(cs.events) > 0 && !sameSet(bs.events, cs.events) {
			out = append(out, fmt.Sprintf("seed %d: sim.events %v -> %v", seed, keys(bs.events), keys(cs.events)))
		}
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
