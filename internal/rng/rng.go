// Package rng provides seeded, stream-splittable randomness and the
// statistical distributions used to calibrate the synthetic ad ecosystem:
// lognormal latencies, Zipf-like popularity, categorical mixes and bounded
// Pareto tails. All sampling is deterministic given a seed, which makes
// crawls and benchmarks reproducible bit-for-bit.
//
// The generator core is xoshiro256** seeded through splitmix64: seeding a
// stream costs four integer mixes (vs the 607-word table fill of
// math/rand's lagged-Fibonacci source), so the crawler can derive a fresh
// stream per (site, day) visit without seeding ever appearing in a
// profile. Streams are derived by name ("site/<domain>", "eco/bid/<slug>",
// ...) from a stable 64-bit key, never by consuming parent state, so a
// child stream is identical no matter how many sibling streams were
// derived before it or how many draws the parent has made (DESIGN.md §5).
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic random stream with convenience samplers.
// A Stream is not safe for concurrent use; derive per-goroutine child
// streams with Derive or SplitStable.
type Stream struct {
	s0, s1, s2, s3 uint64 // xoshiro256** state

	// key is the stable derivation identity of this stream: children are
	// derived from (key, name), independent of draws taken from s0..s3.
	key uint64

	// spare caches the second normal deviate of a Box-Muller polar pair.
	spare    float64
	hasSpare bool
}

// New returns a stream seeded with seed.
func New(seed int64) *Stream {
	s := &Stream{}
	s.reseed(uint64(seed))
	return s
}

// Reseed reinitializes the stream in place from seed, exactly as New
// would. It exists so pooled owners (the crawler's per-worker simulated
// network) can start a fresh deterministic stream without allocating.
func (s *Stream) Reseed(seed int64) { s.reseed(uint64(seed)) }

// reseed (re)initializes the generator state from a 64-bit key by running
// splitmix64 four times — the canonical way to seed xoshiro, and the few
// integer mixes that replaced math/rand's 607-iteration table build.
func (s *Stream) reseed(key uint64) {
	s.key = key
	x := key
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		// xoshiro must not start from the all-zero state; splitmix64 makes
		// this astronomically unlikely but the guard keeps it impossible.
		s.s3 = 0x9e3779b97f4a7c15
	}
	s.hasSpare = false
}

// splitmix64 is the SplitMix64 step function (Steele, Lea, Flood 2014).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return mix64(*x)
}

// mix64 is the splitmix64 finalizer. Derivation keys pass through it so
// the (key, name) → child-key map is non-linear: a plain XOR fold would
// make Derive(n).Derive(n) reproduce the parent and make sibling path
// segments commute — aliased "independent" streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 exposes the splitmix64 finalizer for stateless hashing uses
// outside stream derivation — e.g. sitegen's shard assignment, which
// needs a uniform, seed-addressed hash of (seed, rank) without paying
// for a Stream.
func Mix64(z uint64) uint64 { return mix64(z) }

// Name is a stream name in hashed form (FNV-1a, computed without
// allocating). The hash is built one piece at a time, so a caller that
// derives "eco/bid/"+slug on every visit keeps NameOf("eco/bid/") and
// appends the slug instead of concatenating:
// NameOf(a).Append(b) == NameOf(a+b).
type Name uint64

// NameOf hashes name.
func NameOf(name string) Name {
	return Name(14695981039346656037).Append(name)
}

// Append continues the hash with s.
func (n Name) Append(s string) Name {
	h := uint64(n)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return Name(h)
}

// Derive returns the independent child stream identified by name. The
// derivation uses only the parent's stable key — never its generator
// state — so the child is identical regardless of how many draws the
// parent has made or how many siblings were derived first.
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only the rng tests call it (the five TestDerive* tests and TestSeedingIsCheap)
func (s *Stream) Derive(name string) *Stream {
	c := &Stream{}
	c.reseed(mix64(s.key ^ uint64(NameOf(name))))
	return c
}

// NOTE: the deprecated Split alias (order-dependent derivation in its
// original form, later an alias for Derive) has been removed; use Derive
// on a stream, or SplitStable with a bare seed. The CI lint step fails
// on any deprecated-API usage so a resurrection is caught loudly.

// SplitStable derives a child stream from a base seed and a name without
// consuming state from any parent. Use it when the set of children is
// dynamic but each child must be independent of enumeration order.
func SplitStable(seed int64, name string) *Stream {
	s := &Stream{}
	s.ReseedStable(seed, NameOf(name))
	return s
}

// ReseedStable reinitializes the stream in place to the state
// SplitStable(seed, name) starts from, name given in hashed form: the
// allocation-free way for a pooled owner to restart a named stream.
func (s *Stream) ReseedStable(seed int64, name Name) {
	s.reseed(mix64(uint64(seed) ^ uint64(name)))
}

// Uint64 returns the next 64 uniform bits (xoshiro256**).
func (s *Stream) Uint64() uint64 {
	out := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return out
}

// Float64 returns a uniform sample in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}

// uint64n returns a uniform sample in [0,n) without modulo bias
// (Lemire's multiply-shift rejection method).
func (s *Stream) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.uint64n(uint64(n)))
}

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Bool returns true with probability p (clamped to [0,1]).
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Uniform returns a uniform sample in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + (hi-lo)*s.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
func (s *Stream) UniformInt(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.Intn(hi-lo+1)
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method;
// the rejected-pair spare is cached so draws cost one pair on average).
func (s *Stream) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// LogNormal returns a lognormal sample: exp(N(mu, sigma)). Latencies of
// demand partners are modelled lognormally, matching the long-tailed
// response times the paper reports (medians 41ms-1290ms with heavy tails).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Exponential returns an exponential sample with the given mean
// (inversion: -mean * ln(1-U), with 1-U in (0,1]).
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only TestExponentialMean calls it
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-s.Float64())
}

// Pareto returns a bounded Pareto sample with shape alpha on [lo, hi].
//
//hbvet:allow deadexport deletion deferred (ROADMAP item 13): only TestParetoBounds calls it
func (s *Stream) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := s.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Categorical samples an index proportionally to weights. Zero or negative
// weights are treated as zero. If all weights are zero it returns 0.
func (s *Stream) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// WeightedSampleWithoutReplacement draws k distinct indices from weights.
// If k >= len(weights) all indices are returned in weight-biased order.
func (s *Stream) WeightedSampleWithoutReplacement(weights []float64, k int) []int {
	n := len(weights)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	// Efraimidis-Spirakis: key = u^(1/w); take top-k keys.
	type kw struct {
		idx int
		key float64
	}
	keys := make([]kw, 0, n)
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u := s.Float64()
		keys = append(keys, kw{i, math.Pow(u, 1/w)})
	}
	// Partial selection sort for top-k (n is small, <= a few hundred).
	if k > len(keys) {
		k = len(keys)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(keys); j++ {
			if keys[j].key > keys[best].key {
				best = j
			}
		}
		keys[i], keys[best] = keys[best], keys[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// LogNormalParams converts a desired median and p90 into (mu, sigma) for
// LogNormal. This is how partner latency profiles are calibrated straight
// from the paper's reported medians and tails.
func LogNormalParams(median, p90 float64) (mu, sigma float64) {
	if median <= 0 {
		median = 1e-9
	}
	if p90 <= median {
		p90 = median * 1.01
	}
	mu = math.Log(median)
	// p90 = exp(mu + z90*sigma), z90 ≈ 1.2815515655446004.
	const z90 = 1.2815515655446004
	sigma = (math.Log(p90) - mu) / z90
	return mu, sigma
}
