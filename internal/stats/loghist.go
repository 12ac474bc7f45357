package stats

import (
	"fmt"
	"math"
)

// LogHistogram is a log-bucketed (HDR-style) histogram for long-tailed
// positive observations such as response times. Bucket i covers the
// geometric interval [lo·γ^i, lo·γ^(i+1)) with γ = (1+relErr)², so the
// geometric midpoint of any bucket is within a factor (1+relErr) of
// every value the bucket holds: quantile estimates carry a bounded
// *relative* error of relErr regardless of where in the range they
// fall — unlike a linear-bin histogram, whose absolute bin width makes
// small quantiles arbitrarily coarse.
//
// Values below lo clamp to lo and values at or above hi land in a
// dedicated overflow bin reported as hi; choose [lo, hi) generously
// (the bucket count only grows logarithmically in hi/lo).
type LogHistogram struct {
	lo, hi  float64
	relErr  float64
	logLo   float64
	invLogG float64 // 1 / ln γ
	sqrtG   float64 // γ^(1/2): multiplies a bucket's lower edge into its geometric midpoint
	bins    []uint64
	under   uint64
	over    uint64
	count   uint64
}

// NewLogHistogram builds a histogram over [lo, hi) with the given
// relative quantile error bound (e.g. 0.02 for 2%). lo and hi must be
// positive with lo < hi, and relErr must lie in (0, 1).
func NewLogHistogram(lo, hi, relErr float64) *LogHistogram {
	if lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: log histogram range [%v,%v) invalid", lo, hi))
	}
	if relErr <= 0 || relErr >= 1 {
		panic(fmt.Sprintf("stats: log histogram relative error %v outside (0,1)", relErr))
	}
	g := (1 + relErr) * (1 + relErr)
	n := int(math.Ceil(math.Log(hi/lo) / math.Log(g)))
	return &LogHistogram{
		lo:      lo,
		hi:      hi,
		relErr:  relErr,
		logLo:   math.Log(lo),
		invLogG: 1 / math.Log(g),
		sqrtG:   1 + relErr,
		bins:    make([]uint64, n),
	}
}

// RelErr returns the histogram's relative quantile error bound.
func (h *LogHistogram) RelErr() float64 { return h.relErr }

// Add records one observation.
func (h *LogHistogram) Add(v float64) {
	h.count++
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		i := int((math.Log(v) - h.logLo) * h.invLogG)
		// Guard both edges against floating-point residue in the index.
		if i < 0 {
			i = 0
		} else if i >= len(h.bins) {
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 { return h.count }

// Overflow returns how many observations were at or above the range's
// upper bound.
func (h *LogHistogram) Overflow() uint64 { return h.over }

// Quantile estimates the q-quantile (q in [0,1]) as the geometric
// midpoint of the containing bucket — within a factor (1+RelErr) of the
// exact sample quantile whenever it lies inside [lo, hi). Quantiles in
// the under/overflow bins return lo and hi; an empty histogram returns
// zero.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	acc := float64(h.under)
	if target <= acc && h.under > 0 {
		return h.lo
	}
	for i, c := range h.bins {
		next := acc + float64(c)
		if target <= next && c > 0 {
			lower := math.Exp(h.logLo + float64(i)/h.invLogG)
			mid := lower * h.sqrtG
			if mid > h.hi {
				mid = h.hi
			}
			return mid
		}
		acc = next
	}
	return h.hi
}

// Summary reads the standard tail quantiles in one call.
func (h *LogHistogram) Summary() Quantiles {
	return Quantiles{
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}

// Reset discards all observations, keeping the binning.
func (h *LogHistogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.under, h.over, h.count = 0, 0, 0
}

// Quantiles bundles the tail-latency summary of one distribution.
type Quantiles struct {
	P50  float64
	P90  float64
	P95  float64
	P99  float64
	P999 float64
}
