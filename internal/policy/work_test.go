package policy

import (
	"testing"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/workload"
)

// workView extends fixedView with per-site work amounts.
type workView struct {
	fixedView
	cpuW, ioW []float64
}

func (v workView) CPUWork(s int) float64 { return v.cpuW[s] }
func (v workView) IOWork(s int) float64  { return v.ioW[s] }

var _ loadinfo.WorkView = workView{}

func TestWorkCostBottleneck(t *testing.T) {
	env := testEnv(workView{
		fixedView: fixedView{io: []int{1, 1}, cpu: []int{1, 1}},
		cpuW:      []float64{30, 0},
		ioW:       []float64{0, 10},
	}, 2)
	var wc workCost
	q := &workload.Query{EstReads: 10, EstPageCPU: 0.1} // cpu 1, io 10
	// Site 0: max((30+1)/1, (0+10)/2) = 31. Site 1: max(1, 20/2=10) = 10.
	if got := siteCost(wc, q, 0, 0, env); got != 31 {
		t.Errorf("cost(site0) = %v, want 31", got)
	}
	if got := siteCost(wc, q, 1, 0, env); got != 10 {
		t.Errorf("cost(site1) = %v, want 10", got)
	}
}

func TestWorkCostFallsBackToCounts(t *testing.T) {
	// A plain View without work info degrades to query counts.
	env := testEnv(fixedView{io: []int{2, 0}, cpu: []int{1, 1}}, 2)
	var wc workCost
	if got := siteCost(wc, ioQuery(), 0, 0, env); got != 3 {
		t.Errorf("fallback cost = %v, want count 3", got)
	}
}

func TestWorkCostUsesSpeed(t *testing.T) {
	env := testEnv(workView{
		fixedView: fixedView{io: []int{0, 0}, cpu: []int{0, 0}},
		cpuW:      []float64{40, 40},
		ioW:       []float64{0, 0},
	}, 2)
	env.CPUSpeeds = []float64{2, 1}
	var wc workCost
	q := &workload.Query{EstReads: 20, EstPageCPU: 1.0}
	fast := siteCost(wc, q, 0, 0, env)
	slow := siteCost(wc, q, 1, 0, env)
	if fast >= slow {
		t.Errorf("fast site cost %v not below slow %v", fast, slow)
	}
}

func TestWorkPolicyConstruction(t *testing.T) {
	p, err := New(Work, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "WORK" {
		t.Errorf("Name = %q", p.Name())
	}
	if Work.String() != "WORK" {
		t.Errorf("Kind string = %q", Work.String())
	}
}

func TestWorkSelectsLeastLoadedBottleneck(t *testing.T) {
	p, err := New(Work, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(workView{
		fixedView: fixedView{io: []int{0, 0, 0}, cpu: []int{0, 0, 0}},
		cpuW:      []float64{100, 5, 50},
		ioW:       []float64{0, 0, 0},
	}, 3)
	if got := p.Select(cpuQuery(), 0, env); got != 1 {
		t.Errorf("WORK chose %d, want least-backlog site 1", got)
	}
}
