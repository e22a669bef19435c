package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64). Every stochastic element of the simulation draws from an
// explicitly seeded RNG so that runs are reproducible across Go versions,
// unlike math/rand whose default generator may change.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator; useful for giving each
// simulated process its own stream without cross-coupling draw order.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64()}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Int63n returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	// Rejection sampling to avoid modulo bias.
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a pseudo-random number in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Range returns a pseudo-random int64 in [lo, hi). It panics if hi <= lo.
func (r *RNG) Range(lo, hi int64) int64 {
	return lo + r.Int63n(hi-lo)
}

// Duration returns a pseudo-random duration in [lo, hi).
func (r *RNG) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)))
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
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
