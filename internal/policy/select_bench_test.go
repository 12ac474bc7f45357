package policy

import (
	"fmt"
	"testing"

	"dqalloc/internal/loadinfo"
	"dqalloc/internal/rng"
	"dqalloc/internal/workload"
)

// selectSink keeps BenchmarkSelect's calls from being optimized away.
var selectSink int

// BenchmarkSelect times one site-selection decision of each cost-based
// policy against a ground-truth load table of N sites: with the paper's
// plain environment, and with a candidate restriction (half the sites),
// a liveness mask (every eighth site down) and a cost penalty (every
// fifth site) set; and, in the plain environment, of the same cost
// function probing two remote sites.
func BenchmarkSelect(b *testing.B) {
	costs := map[Kind]CostFunc{BNQ: bnqCost{}, BNQRD: bnqrdCost{}, LERT: lertCost{}, Work: workCost{}}
	for _, n := range []int{4, 16, 64, 256} {
		tb := loadinfo.NewTable(n)
		st := rng.NewStream(7)
		for i := 0; i < 4*n; i++ {
			s := st.Intn(n)
			bound := workload.IOBound
			if st.Bernoulli(0.5) {
				bound = workload.CPUBound
			}
			tb.Assign(s, bound)
			tb.AssignWork(s, st.Exp(2), st.Exp(20))
		}
		for _, kind := range []Kind{BNQ, BNQRD, LERT, Work} {
			for _, constrained := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/%v/plain", n, kind)
				env := testEnv(tb, n)
				if constrained {
					name = fmt.Sprintf("N=%d/%v/constrained", n, kind)
					for s := 0; s < n; s += 2 {
						env.Candidates = append(env.Candidates, s)
					}
					env.Up = make([]bool, n)
					for s := range env.Up {
						env.Up[s] = s%8 != 7
					}
					env.Penalty = func(s int) float64 {
						if s%5 == 0 {
							return 1000
						}
						return 0
					}
				}
				b.Run(name, func(b *testing.B) {
					p, err := New(kind, n, nil)
					if err != nil {
						b.Fatal(err)
					}
					qs := [2]*workload.Query{ioQuery(), cpuQuery()}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						selectSink = p.Select(qs[i&1], i%n, env)
					}
				})
			}
			b.Run(fmt.Sprintf("N=%d/%v/probe2", n, kind), func(b *testing.B) {
				p, err := NewProbe(costs[kind], 2, rng.NewStream(3))
				if err != nil {
					b.Fatal(err)
				}
				env := testEnv(tb, n)
				qs := [2]*workload.Query{ioQuery(), cpuQuery()}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					selectSink = p.Select(qs[i&1], i%n, env)
				}
			})
		}
	}
}
