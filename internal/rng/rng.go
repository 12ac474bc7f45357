// Package rng supplies deterministic pseudo-random number streams for the
// simulation.
//
// The generator is xoshiro256++ seeded through splitmix64, implemented here
// so that experiment outputs are bit-reproducible regardless of Go release.
// Every stochastic entity in the model (each terminal source, each disk,
// the allocator's tie-breakers, ...) owns an independent Stream derived
// from the experiment's root seed, so changing one entity's consumption
// pattern never perturbs another's — the classic common-random-numbers
// discipline for variance reduction when comparing allocation policies.
package rng

import "math"

// Stream is a single pseudo-random sequence. It is not safe for concurrent
// use; each goroutine (the simulation is single-threaded anyway) and each
// model entity should own its own Stream.
type Stream struct {
	s [4]uint64
}

// NewStream returns a stream seeded from seed via splitmix64, following the
// xoshiro authors' recommended initialization.
func NewStream(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

// seeded returns, by value, the stream NewStream(seed) points to.
func seeded(seed uint64) Stream {
	var st Stream
	x := seed
	for i := range st.s {
		x, st.s[i] = splitmix64(x)
	}
	// xoshiro must not start from the all-zero state.
	if st.s == [4]uint64{} {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// Child derives an independent stream from this stream's seed lineage and
// the given identifier. Calling Child never consumes numbers from the
// parent, so adding entities does not shift existing sequences.
func (r *Stream) Child(id uint64) *Stream {
	st := r.Derive(id)
	return &st
}

// Derive returns, by value, the stream Child(id) points to, so an entity
// can hold its streams inline instead of as separate heap objects.
func (r *Stream) Derive(id uint64) Stream {
	// Mix the parent's state with the child id through splitmix64.
	x := r.s[0] ^ (id+1)*0xbf58476d1ce4e5b9
	x, _ = splitmix64(x)
	x ^= r.s[2]
	return seeded(x)
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256++).
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded generation without modulo bias.
	bound := uint64(n)
	for {
		v := r.Uint64()
		if v < math.MaxUint64-math.MaxUint64%bound || bound&(bound-1) == 0 {
			return int(v % bound)
		}
	}
}

// Exp returns an exponential variate with the given mean. A zero mean
// yields zero (a degenerate but occasionally useful configuration, e.g.
// disabled think time). A +Inf mean yields +Inf without consuming a
// variate, so "this event never happens" configurations (e.g. an
// infinite mean time to failure) leave the stream untouched.
func (r *Stream) Exp(mean float64) float64 {
	if mean < 0 {
		panic("rng: negative exponential mean")
	}
	if mean == 0 {
		return 0
	}
	if math.IsInf(mean, 1) {
		return math.Inf(1)
	}
	// Guard against log(0); Float64 is in [0,1).
	u := 1 - r.Float64()
	return -mean * math.Log(u)
}

// Normal returns a standard normal variate via the Box–Muller transform.
// Every call consumes exactly two uniforms (the second transform output
// is discarded rather than cached), so a stream's consumption depends
// only on the call count — the same fixed-consumption discipline the
// rest of the model relies on for common random numbers.
func (r *Stream) Normal() float64 {
	// 1 - Float64() lies in (0, 1], so the logarithm is finite.
	u := 1 - r.Float64()
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Uniform returns a uniform variate in [lo, hi). It panics if hi < lo.
func (r *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n), Fisher–Yates shuffled.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitmix64 advances the splitmix64 state and returns the next state and
// output value.
func splitmix64(x uint64) (state, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return x, z
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
