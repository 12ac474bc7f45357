package workload

import (
	"math"
	"testing"

	"dqalloc/internal/rng"
)

// paperClasses returns the default two classes of Table 7.
func paperClasses() []Class {
	return []Class{
		{Name: "io", PageCPUTime: 0.05, NumReads: 20, MsgLength: 1},
		{Name: "cpu", PageCPUTime: 1.0, NumReads: 20, MsgLength: 1},
	}
}

func TestClassBoundRule(t *testing.T) {
	tests := []struct {
		name     string
		cpu      float64
		diskTime float64
		disks    int
		want     Bound
	}{
		{name: "io class two disks", cpu: 0.05, diskTime: 1, disks: 2, want: IOBound},
		{name: "cpu class two disks", cpu: 1.0, diskTime: 1, disks: 2, want: CPUBound},
		{name: "boundary equals is cpu", cpu: 0.5, diskTime: 1, disks: 2, want: CPUBound},
		{name: "many disks flip to cpu", cpu: 0.05, diskTime: 1, disks: 25, want: CPUBound},
		{name: "single disk", cpu: 0.9, diskTime: 1, disks: 1, want: IOBound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Class{Name: "c", PageCPUTime: tt.cpu, NumReads: 20}
			if got := c.Bound(tt.diskTime, tt.disks); got != tt.want {
				t.Errorf("Bound = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassDemands(t *testing.T) {
	c := Class{Name: "cpu", PageCPUTime: 1.0, NumReads: 20}
	if c.MeanCPUDemand() != 20 {
		t.Errorf("MeanCPUDemand = %v, want 20", c.MeanCPUDemand())
	}
	if c.MeanDiskDemand(1) != 20 {
		t.Errorf("MeanDiskDemand = %v, want 20", c.MeanDiskDemand(1))
	}
	if c.MeanServiceDemand(1) != 40 {
		t.Errorf("MeanServiceDemand = %v, want 40", c.MeanServiceDemand(1))
	}
}

func TestPaperMeanExecutionTime(t *testing.T) {
	// Section 5.2 quotes a mean execution time of 30.5 for the default
	// 50/50 mix: 20 reads * (1 + (0.05+1.0)/2).
	cs := paperClasses()
	mean := 0.5*cs[0].MeanServiceDemand(1) + 0.5*cs[1].MeanServiceDemand(1)
	if math.Abs(mean-30.5) > 1e-9 {
		t.Errorf("mean execution time = %v, want 30.5", mean)
	}
}

func TestClassValidate(t *testing.T) {
	tests := []struct {
		name    string
		class   Class
		wantErr bool
	}{
		{name: "valid", class: Class{Name: "ok", PageCPUTime: 0.1, NumReads: 5}},
		{name: "negative cpu", class: Class{PageCPUTime: -1, NumReads: 5}, wantErr: true},
		{name: "reads below one", class: Class{PageCPUTime: 1, NumReads: 0.5}, wantErr: true},
		{name: "negative msg", class: Class{PageCPUTime: 1, NumReads: 5, MsgLength: -1}, wantErr: true},
		{name: "NaN cpu", class: Class{PageCPUTime: math.NaN(), NumReads: 5}, wantErr: true},
		{name: "NaN reads", class: Class{PageCPUTime: 1, NumReads: math.NaN()}, wantErr: true},
		{name: "NaN msg", class: Class{PageCPUTime: 1, NumReads: 5, MsgLength: math.NaN()}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.class.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewGeneratorRejectsBadConfig(t *testing.T) {
	stream := rng.NewStream(1)
	cs := paperClasses()
	tests := []struct {
		name    string
		classes []Class
		probs   []float64
		mode    EstimateMode
		stream  *rng.Stream
	}{
		{name: "no classes", classes: nil, probs: nil, mode: EstimateClassMean, stream: stream},
		{name: "probs mismatch", classes: cs, probs: []float64{1}, mode: EstimateClassMean, stream: stream},
		{name: "probs not normalized", classes: cs, probs: []float64{0.5, 0.6}, mode: EstimateClassMean, stream: stream},
		{name: "negative prob", classes: cs, probs: []float64{-0.5, 1.5}, mode: EstimateClassMean, stream: stream},
		{name: "NaN probs", classes: cs, probs: []float64{math.NaN(), math.NaN()}, mode: EstimateClassMean, stream: stream},
		{name: "bad mode", classes: cs, probs: []float64{0.5, 0.5}, mode: 0, stream: stream},
		{name: "nil stream", classes: cs, probs: []float64{0.5, 0.5}, mode: EstimateClassMean, stream: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGenerator(tt.classes, tt.probs, tt.mode, tt.stream); err == nil {
				t.Error("NewGenerator accepted invalid config")
			}
		})
	}
}

func TestGeneratorClassMix(t *testing.T) {
	g, err := NewGenerator(paperClasses(), []float64{0.3, 0.7}, EstimateClassMean, rng.NewStream(5))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if g.New(0, 0).Class == 0 {
			count++
		}
	}
	if frac := float64(count) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("class 0 fraction = %v, want ~0.3", frac)
	}
}

func TestGeneratorReadsDistribution(t *testing.T) {
	g, err := NewGenerator(paperClasses(), []float64{1, 0}, EstimateClassMean, rng.NewStream(6))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	sum := 0.0
	minReads := math.MaxInt
	for i := 0; i < n; i++ {
		q := g.New(0, 0)
		sum += float64(q.ReadsTotal)
		if q.ReadsTotal < minReads {
			minReads = q.ReadsTotal
		}
	}
	if mean := sum / n; math.Abs(mean-20) > 0.5 {
		t.Errorf("mean reads = %v, want ~20", mean)
	}
	if minReads < 1 {
		t.Errorf("min reads = %d, want >= 1", minReads)
	}
}

func TestGeneratorEstimateModes(t *testing.T) {
	cs := paperClasses()
	gMean, err := NewGenerator(cs, []float64{1, 0}, EstimateClassMean, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	q := gMean.New(2, 5)
	if q.EstReads != 20 || q.EstPageCPU != 0.05 {
		t.Errorf("class-mean estimates = (%v, %v), want (20, 0.05)", q.EstReads, q.EstPageCPU)
	}
	if q.Home != 2 || q.Exec != 2 || q.SubmitTime != 5 {
		t.Errorf("query bookkeeping = %+v", q)
	}

	gActual, err := NewGenerator(cs, []float64{1, 0}, EstimateActual, rng.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	q2 := gActual.New(0, 0)
	if q2.EstReads != float64(q2.ReadsTotal) {
		t.Errorf("actual estimate = %v, want sampled %d", q2.EstReads, q2.ReadsTotal)
	}
}

func TestQueryIDsUnique(t *testing.T) {
	g, err := NewGenerator(paperClasses(), []float64{0.5, 0.5}, EstimateClassMean, rng.NewStream(8))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		q := g.New(0, 0)
		if seen[q.ID] {
			t.Fatalf("duplicate query ID %d", q.ID)
		}
		seen[q.ID] = true
	}
}

func TestQueryEstimateHelpers(t *testing.T) {
	q := &Query{EstReads: 10, EstPageCPU: 0.5, Home: 1, Exec: 3}
	if q.EstCPUDemand() != 5 {
		t.Errorf("EstCPUDemand = %v, want 5", q.EstCPUDemand())
	}
	if q.EstDiskDemand(2) != 20 {
		t.Errorf("EstDiskDemand = %v, want 20", q.EstDiskDemand(2))
	}
	if !q.Remote() {
		t.Error("Remote() = false for Home != Exec")
	}
}

func TestBoundString(t *testing.T) {
	if IOBound.String() != "io-bound" || CPUBound.String() != "cpu-bound" || Bound(0).String() != "unknown" {
		t.Error("Bound.String mismatch")
	}
}

func TestEstimateModeString(t *testing.T) {
	if EstimateClassMean.String() != "class-mean" || EstimateActual.String() != "actual" || EstimateMode(0).String() != "unknown" {
		t.Error("EstimateMode.String mismatch")
	}
}
