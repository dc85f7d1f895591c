// Package xrand provides deterministic pseudo-random number generation and
// the sampling distributions used by the workload synthesizers.
//
// The simulators in this repository must be reproducible bit-for-bit across
// runs and platforms, so we implement a fixed algorithm (xoshiro256**, seeded
// via splitmix64) instead of relying on math/rand's unspecified evolution.
package xrand

import "math"

// RNG is a xoshiro256** generator. The zero value is not valid; use New or
// Seed.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed using splitmix64,
// as recommended by the xoshiro authors. Any seed, including zero, is valid.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream New(seed) starts, so a generator held
// by value can be reused without allocating.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split seeds dst as a generator independent of r and returns it. The
// derived stream is decorrelated by hashing a draw from r through
// splitmix64; dst's previous state is overwritten.
func (r *RNG) Split(dst *RNG) *RNG {
	dst.Seed(r.Uint64() ^ 0xd1342543de82ef95)
	return dst
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	return int(math.Log(1-r.Float64()) / math.Log(1-p))
}
