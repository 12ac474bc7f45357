package workload

import (
	"reflect"
	"testing"

	"dqalloc/internal/race"
	"dqalloc/internal/rng"
)

// The into-buffer plan helpers let the system layer keep plans in pooled
// records. These tests pin that they draw and build exactly what the
// allocating forms do, and that warmed they allocate nothing.

var genCfg = PlanGenConfig{
	JoinProb: 0.6, FilterProb: 0.4, SelScan: 0.5, SelJoin: 0.25,
	JoinPageCPU: 0.1, FilterPageCPU: 0.02, ShipBytesPerPage: 0.05, NumFrags: 8,
}

func TestPlanGenIntoMatchesNew(t *testing.T) {
	fresh, err := NewPlanGen(genCfg, rng.NewStream(11).Child(12))
	if err != nil {
		t.Fatal(err)
	}
	into, err := NewPlanGen(genCfg, rng.NewStream(11).Child(12))
	if err != nil {
		t.Fatal(err)
	}
	var buf []Operator
	joins := 0
	for i := 0; i < 10000; i++ {
		q := &Query{ReadsTotal: 1 + i%50, Object: i % 8}
		want := fresh.New(q, 20)
		got := into.NewInto(q, 20, buf)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: NewInto = %+v, want %+v", i, got, want)
		}
		if len(got.Ops) > 1 {
			joins++
		}
		buf = got.Ops
	}
	if joins == 0 {
		t.Fatal("no join tree drawn")
	}
}

func TestFillMatchesNew(t *testing.T) {
	classes := []Class{{Name: "io", PageCPUTime: 0.05, NumReads: 20, MsgLength: 1}, {Name: "cpu", PageCPUTime: 0.5, NumReads: 20, MsgLength: 1}}
	probs := []float64{0.5, 0.5}
	a, err := NewGenerator(classes, probs, EstimateClassMean, rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(classes, probs, EstimateClassMean, rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Exec: 9, ReadsDone: 4, Service: 7, Attempt: 1}
	for i := 0; i < 1000; i++ {
		want := a.New(i%4, float64(i))
		b.Fill(q, i%4, float64(i))
		if *q != *want {
			t.Fatalf("query %d: Fill = %+v, want %+v", i, *q, *want)
		}
		want = a.NewOfClass(i%2, i%4, float64(i))
		b.FillOfClass(q, i%2, i%4, float64(i))
		if *q != *want {
			t.Fatalf("query %d: FillOfClass = %+v, want %+v", i, *q, *want)
		}
	}
}

func TestExpandFragRepIntoMatches(t *testing.T) {
	var sites, shares []int
	for pages := 1; pages < 12; pages++ {
		offered := []int{4, 0, 7, 2, 5}[:1+pages%5]
		want, err := ExpandFragRep(nil, 0, pages, offered)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExpandFragRepInto(nil, 0, pages, offered, sites, shares)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pages %d: into = %+v, want %+v", pages, got, want)
		}
		sites, shares = got.Sites, got.Shares
	}
}

func TestPlanHelpersAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	p := validTree()
	if avg := testing.AllocsPerRun(200, func() {
		if err := p.Validate(4, 6); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Validate allocates %v objects/op, want 0", avg)
	}
	parent := make([]int, 0, MaxPlanOps)
	if avg := testing.AllocsPerRun(200, func() { parent = p.ParentInto(parent) }); avg != 0 {
		t.Errorf("ParentInto allocates %v objects/op, want 0", avg)
	}
	gen, err := NewPlanGen(genCfg, rng.NewStream(5).Child(12))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{ReadsTotal: 12, Object: 3}
	ops := make([]Operator, 0, 4)
	if avg := testing.AllocsPerRun(500, func() { ops = gen.NewInto(q, 20, ops).Ops }); avg != 0 {
		t.Errorf("warmed NewInto allocates %v objects/op, want 0", avg)
	}
	sites, shares := make([]int, 0, 8), make([]int, 0, 8)
	offered := []int{3, 1, 6}
	if avg := testing.AllocsPerRun(200, func() {
		rep, err := ExpandFragRepInto(nil, 0, 10, offered, sites, shares)
		if err != nil {
			t.Fatal(err)
		}
		sites, shares = rep.Sites, rep.Shares
	}); avg != 0 {
		t.Errorf("warmed ExpandFragRepInto allocates %v objects/op, want 0", avg)
	}
}
