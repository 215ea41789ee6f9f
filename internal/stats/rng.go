// Package stats implements the statistical machinery the paper relies on,
// from scratch on the standard library: continuous probability
// distributions with maximum-likelihood fitters, the Kolmogorov–Smirnov
// and Anderson–Darling goodness-of-fit tests, empirical CDFs with
// max-y-distance comparison, variance–time (burstiness) analysis, and a
// deterministic splittable random number generator.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256++) with SplitMix64 seeding. It is splittable: Split derives
// an independent stream, which lets every per-UE generator own its own
// stream so concurrent generation is reproducible and order-independent.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	*r = NewRNGVal(seed)
	return r
}

// NewRNGVal is NewRNG without the allocation: it returns the generator by
// value, for callers that embed RNG state in slab-allocated structures.
// The state computation is identical to NewRNG, so the two produce the
// same stream for the same seed.
func NewRNGVal(seed uint64) RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

// splitmix64 advances the SplitMix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// SplitVal derives a new, statistically independent generator keyed by
// n. Calling it with distinct keys on the same parent yields distinct
// streams; the parent's own state is not consumed. It returns the
// generator by value, for per-UE state that lives in per-worker slabs.
func (r *RNG) SplitVal(n uint64) RNG {
	return NewRNGVal(r.s[0] ^ rotl(r.s[2], 17) ^ (n * 0xD1342543DE82EF95))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform value in the open interval (0, 1), never
// exactly 0 or 1, which keeps inverse-transform sampling away from
// infinite quantiles.
func (r *RNG) OpenFloat64() float64 {
	for {
		u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	m := t & mask
	t = a0*b1 + m
	lo |= (t & mask) << 32
	hi = a1*b1 + c + (t >> 32)
	return
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	return -math.Log(r.OpenFloat64()) / rate
}

// Norm returns a standard normal value using the polar (Marsaglia) method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Lognormal returns exp(mu + sigma*Z) for standard normal Z.
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// ParetoSample returns a Pareto(xm, alpha) value.
func (r *RNG) ParetoSample(xm, alpha float64) float64 {
	return xm / math.Pow(r.OpenFloat64(), 1/alpha)
}

// Poisson returns a Poisson(lambda)-distributed count. For small lambda it
// uses Knuth's product method; for large lambda, normal approximation with
// continuity correction, which is accurate enough for workload synthesis.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(lambda + math.Sqrt(lambda)*r.Norm() + 0.5)
	if n < 0 {
		return 0
	}
	return n
}

// Shuffle permutes xs uniformly at random (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
