// Package rng provides deterministic random-number utilities for the EOTORA
// simulator: named sub-streams derived from a root seed, and the bounded
// distributions the paper's simulation section uses (uniform ranges,
// standard-normal perturbations, lognormal noise, truncated normals).
//
// Every stochastic component of the simulator draws from its own named
// stream so that (a) experiments are reproducible bit-for-bit from a single
// seed, and (b) adding a new consumer of randomness does not perturb the
// draws seen by existing components.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distribution helpers used across the simulator.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Derive returns a new independent Source whose seed is a hash of the
// parent seed-stream and the given name. Derivation consumes one draw from
// the parent, so derivation order matters but later direct draws from the
// parent do not affect the child.
func (s *Source) Derive(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mix := int64(h.Sum64()) ^ s.r.Int63()
	return New(mix)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Normal returns a draw from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma²)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// TruncNormal returns a draw from N(mean, stddev²) truncated to [lo, hi]
// by rejection sampling, falling back to clamping after a bounded number
// of rejections so pathological bounds cannot hang the simulator.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	const maxTries = 64
	for i := 0; i < maxTries; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return Clamp(s.Normal(mean, stddev), lo, hi)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
