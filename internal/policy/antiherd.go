package policy

// This file holds the anti-herd tuning for the Figure-3 selector — the
// policy layer of the imperfect-information robustness extension. Under
// stale load views (loadinfo.Broadcaster) or noisy demand estimates
// (internal/noise), plain greedy selection herds: every site sees the
// same momentarily-idle victim, dumps its queries there, and the
// overload only becomes visible at the next broadcast. The three
// defenses here are the classic mitigations:
//
//   - Hysteresis keeps the query at its arrival site unless the best
//     remote undercuts the local cost by a relative margin, so small
//     (likely spurious) differences never trigger a transfer.
//   - Power-of-K sampling costs only K randomly drawn eligible remotes
//     per decision, decorrelating concurrent deciders (the
//     power-of-two-choices insight: K = 2 captures most of the benefit
//     with none of the herding).
//   - Probabilistic tie-breaking picks uniformly among equal-cost
//     remotes instead of first-in-scan-order, spreading simultaneous
//     decisions across equally attractive sites.
//
// All three are off in the zero Tuning, and a selector built with the
// zero Tuning consumes no random draws and decides bit-identically to
// the untuned Figure-3 loop.

import (
	"fmt"
	"math"

	"dqalloc/internal/rng"
)

// Tuning collects the selector's anti-herd knobs. The zero value
// disables them all.
type Tuning struct {
	// Hysteresis is the relative transfer margin: a query moves only
	// when the best remote cost is below local·(1 − Hysteresis). Zero
	// restores the paper's strict < comparison; must stay in [0, 1).
	Hysteresis float64
	// PowerK, when positive, costs only K randomly sampled eligible
	// remote sites per decision instead of scanning them all. Zero
	// scans every site (the paper's loop); values above the site count
	// are invalid.
	PowerK int
	// RandomTies breaks equal-cost remote ties uniformly at random
	// (reservoir sampling over the scan) instead of keeping the first
	// site scanned.
	RandomTies bool
}

// Enabled reports whether any knob departs from the paper's selector.
func (t Tuning) Enabled() bool { return t.Hysteresis != 0 || t.PowerK != 0 || t.RandomTies }

// Validate reports the first tuning error, if any, for a system of
// numSites sites.
func (t Tuning) Validate(numSites int) error {
	switch {
	case math.IsNaN(t.Hysteresis) || t.Hysteresis < 0 || t.Hysteresis >= 1:
		return fmt.Errorf("policy: hysteresis margin %v outside [0,1)", t.Hysteresis)
	case t.PowerK < 0:
		return fmt.Errorf("policy: negative PowerK %d", t.PowerK)
	case t.PowerK > numSites:
		return fmt.Errorf("policy: PowerK %d exceeds %d sites", t.PowerK, numSites)
	}
	return nil
}

// NewTunedSelector wraps a cost function in the Figure-3 loop with the
// given anti-herd tuning. stream drives PowerK sampling and random
// tie-breaking; it may be nil only when neither is enabled.
func NewTunedSelector(cost CostFunc, numSites int, tune Tuning, stream *rng.Stream) (*Selector, error) {
	if numSites <= 0 {
		return nil, fmt.Errorf("policy: numSites %d must be positive", numSites)
	}
	if err := tune.Validate(numSites); err != nil {
		return nil, err
	}
	if (tune.PowerK > 0 || tune.RandomTies) && stream == nil {
		return nil, fmt.Errorf("policy: PowerK/RandomTies tuning needs a random stream")
	}
	sel := NewSelector(cost, numSites)
	sel.tune = tune
	sel.stream = stream
	return sel, nil
}

// NewTuned builds a cost-based policy of the given kind with anti-herd
// tuning. Only the selector policies (BNQ, BNQRD, LERT, WORK) accept
// tuning: LOCAL never transfers and RANDOM never consults costs, so a
// margin, sample size, or tie-break rule has nothing to act on there.
func NewTuned(kind Kind, numSites int, tune Tuning, stream *rng.Stream) (Policy, error) {
	var cost CostFunc
	switch kind {
	case BNQ:
		cost = bnqCost{}
	case BNQRD:
		cost = bnqrdCost{}
	case LERT:
		cost = lertCost{}
	case Work:
		cost = workCost{}
	default:
		return nil, fmt.Errorf("policy: anti-herd tuning requires a cost-based policy, not %v", kind)
	}
	return NewTunedSelector(cost, numSites, tune, stream)
}

// appendSample appends to dst up to PowerK eligible remote sites drawn
// uniformly without replacement (partial Fisher–Yates over the eligible
// set). When fewer than K remotes are eligible every one is appended —
// and no draws are consumed, so stream usage depends only on the
// decision sequence, never on which sites happen to be down.
func (sel *Selector) appendSample(dst []int, arrival int, env *Env) []int {
	base := len(dst)
	if env.Candidates == nil {
		for s := 0; s < env.NumSites; s++ {
			if s != arrival && env.siteUp(s) {
				dst = append(dst, s)
			}
		}
	} else {
		for _, s := range env.Candidates {
			if s != arrival && env.siteUp(s) {
				dst = append(dst, s)
			}
		}
	}
	pool := dst[base:]
	k := sel.tune.PowerK
	if k >= len(pool) {
		return dst
	}
	for i := 0; i < k; i++ {
		j := i + sel.stream.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return dst[:base+k]
}
