package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). It is NOT safe for concurrent use;
// give each node/goroutine its own RNG (use Split).
type RNG struct {
	s [4]uint64

	// cached spare normal variate for the Box-Muller transform.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded from the given seed. Two RNGs built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed over the full state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from this one. The child stream is a
// deterministic function of the parent state, and advancing the child does
// not advance the parent beyond the single draw used to derive it.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers control n so this is a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box-Muller, with caching of the
// spare variate).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// NormVec fills dst with i.i.d. N(mean, std²) samples and returns it.
func (r *RNG) NormVec(dst []float64, mean, std float64) []float64 {
	for i := range dst {
		dst[i] = mean + std*r.Norm()
	}
	return dst
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
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

// LogNormal returns a sample from the log-normal distribution with the given
// parameters of the underlying normal. Used by the network simulator for
// heavy-tailed message latencies.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}
