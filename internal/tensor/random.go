package tensor

import (
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core) used everywhere randomness is needed: weight
// initialization, synthetic dataset generation, and negative sampling.
// Using our own generator keeps every experiment byte-reproducible across
// Go releases (math/rand's stream is not guaranteed stable).
type RNG struct {
	state uint64
	// spare Gaussian from the Box-Muller pair
	hasSpare bool
	spare    float64
}

// NewRNG creates a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's SplitMix64 state for checkpointing.
// The buffered Box-Muller spare is not captured: a restore resumes the
// uniform stream exactly and the Gaussian stream at the next pair.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured by State and drops any buffered
// Gaussian spare.
func (r *RNG) SetState(s uint64) {
	r.state = s
	r.hasSpare = false
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
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

// Pareto returns a Pareto (power-law) variate with minimum xm and shape
// alpha. The synthetic dataset generators use this to reproduce the
// heavy-tailed inter-event time distribution the paper observes (Fig. 4).
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a pseudo-random permutation of [0, n).
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

// Rand fills a new tensor of the given shape with uniform values in
// [0, 1).
func Rand(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.Float32()
	}
	return t
}

// Randn fills a new tensor of the given shape with standard normal
// values.
func Randn(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64())
	}
	return t
}

// XavierUniform initializes a weight tensor with the Glorot/Xavier
// uniform scheme: U(-a, a) with a = sqrt(6/(fanIn+fanOut)). For a rank-2
// tensor shaped (out, in) — the nn.Linear layout — fanIn is Dim(1) and
// fanOut is Dim(0); for rank 1 both fans are the length.
func XavierUniform(r *RNG, t *Tensor) {
	fanIn, fanOut := t.Len(), t.Len()
	if t.Rank() >= 2 {
		fanIn = t.Dim(-1)
		fanOut = t.Len() / fanIn
	}
	a := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range t.data {
		t.data[i] = float32((2*r.Float64() - 1) * a)
	}
}
