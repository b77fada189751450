// Package traffic implements workload generation for the simulator:
// a deterministic splittable PRNG (SplitMix64 seeding an xoshiro-like
// core), per-node Poisson message processes, and the destination
// patterns used in the paper (uniform) plus the customary extensions
// (hotspot, complement-style permutation traffic).
package traffic

import (
	"fmt"
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). It is not safe for concurrent use; give each
// goroutine its own RNG via Split.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. Any seed (including 0) is valid.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator; the parent advances once.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x6a09e667f3bcc909}
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("traffic: Intn(%d)", n))
	}
	// Lemire's multiply-shift rejection method (unbiased).
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// ExpInterval draws an exponential inter-arrival time with the given
// rate (events per cycle). The result is a positive float64.
func (r *RNG) ExpInterval(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Poisson is a per-node arrival process generating message creation
// times as a Poisson stream of the given rate.
type Poisson struct {
	rng  *RNG
	rate float64
	next float64
}

// NewPoisson creates a process; the first arrival is sampled
// immediately so Next is monotone from time 0.
func NewPoisson(rng *RNG, rate float64) *Poisson {
	p := &Poisson{rng: rng, rate: rate}
	p.next = rng.ExpInterval(rate)
	return p
}

// Rate returns the configured arrival rate (messages/cycle).
func (p *Poisson) Rate() float64 { return p.rate }

// NextArrival returns the time of the next arrival without consuming
// it.
func (p *Poisson) NextArrival() float64 { return p.next }

// Pop consumes and returns the next arrival time, scheduling the one
// after it.
func (p *Poisson) Pop() float64 {
	t := p.next
	p.next = t + p.rng.ExpInterval(p.rate)
	return t
}

// Pattern maps a source node to a destination node.
type Pattern interface {
	// Destination returns a destination ≠ src for the given source.
	Destination(src int, rng *RNG) int
	// Name identifies the pattern.
	Name() string
}

// Uniform sends each message to a destination chosen uniformly among
// the other N−1 nodes — the pattern assumed by the paper's model.
type Uniform struct{ N int }

// Name returns "uniform".
func (u Uniform) Name() string { return "uniform" }

// Destination draws uniformly from the nodes other than src.
func (u Uniform) Destination(src int, rng *RNG) int {
	d := rng.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Hotspot sends a fraction of traffic to a single hot node and the
// rest uniformly (a standard stress extension).
type Hotspot struct {
	N        int
	Hot      int
	Fraction float64
}

// Name returns "hotspot".
func (h Hotspot) Name() string { return "hotspot" }

// Destination routes Fraction of messages to Hot (unless src is the
// hot node itself) and the remainder uniformly.
func (h Hotspot) Destination(src int, rng *RNG) int {
	if src != h.Hot && rng.Float64() < h.Fraction {
		return h.Hot
	}
	return Uniform{N: h.N}.Destination(src, rng)
}

// FixedPermutation sends every message from node i to Dest[i]
// (Dest[i] must differ from i), modelling permutation traffic such as
// the complement pattern.
type FixedPermutation struct {
	Dest  []int
	Label string
}

// Name returns the configured label.
func (f FixedPermutation) Name() string { return f.Label }

// Destination returns the fixed target of src.
func (f FixedPermutation) Destination(src int, _ *RNG) int { return f.Dest[src] }

// LengthDist samples message lengths in flits. The paper fixes the
// length at M; the distributions here support sensitivity studies of
// that assumption (the model's service-variance approximation
// σ² = (S−M)² is exact only for fixed-length messages).
type LengthDist interface {
	// Sample draws one message length (≥ 1).
	Sample(rng *RNG) int
	// Mean returns the expected length.
	Mean() float64
	// Variance returns the length variance.
	Variance() float64
}

// FixedLen is the paper's fixed message length.
type FixedLen struct{ M int }

// Sample returns M.
func (f FixedLen) Sample(*RNG) int { return f.M }

// Mean returns M.
func (f FixedLen) Mean() float64 { return float64(f.M) }

// Variance returns 0.
func (f FixedLen) Variance() float64 { return 0 }

// BimodalLen mixes short control-style and long data-style messages,
// the customary two-point length model.
type BimodalLen struct {
	Short, Long int
	// PLong is the probability of drawing Long.
	PLong float64
}

// Sample draws Short or Long.
func (b BimodalLen) Sample(rng *RNG) int {
	if rng.Float64() < b.PLong {
		return b.Long
	}
	return b.Short
}

// Mean returns the expected length.
func (b BimodalLen) Mean() float64 {
	return float64(b.Short)*(1-b.PLong) + float64(b.Long)*b.PLong
}

// Variance returns the length variance.
func (b BimodalLen) Variance() float64 {
	m := b.Mean()
	ds, dl := float64(b.Short)-m, float64(b.Long)-m
	return ds*ds*(1-b.PLong) + dl*dl*b.PLong
}

// UniformLen draws lengths uniformly from [Min, Max].
type UniformLen struct{ Min, Max int }

// Sample draws a length.
func (u UniformLen) Sample(rng *RNG) int { return u.Min + rng.Intn(u.Max-u.Min+1) }

// Mean returns (Min+Max)/2.
func (u UniformLen) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// Variance returns the discrete-uniform variance ((Max−Min+1)²−1)/12.
func (u UniformLen) Variance() float64 {
	w := float64(u.Max - u.Min + 1)
	return (w*w - 1) / 12
}

// Arrivals is a point process generating message creation times; the
// simulator consumes NextArrival/Pop. Poisson implements it; OnOff
// adds burstiness.
type Arrivals interface {
	// NextArrival returns the time of the next arrival without
	// consuming it. It must be a pure getter: the simulator caches
	// the earliest over all nodes and polls no node before then.
	NextArrival() float64
	// Pop consumes and returns the next arrival time.
	Pop() float64
}

// OnOff is a two-state Markov-modulated Poisson process: exponential
// ON periods during which arrivals occur at a boosted rate, and
// silent exponential OFF periods. With BurstFactor B the ON rate is
// B·rate/(duty) so the long-run mean rate equals the configured rate;
// larger B means burstier traffic at the same load — the standard
// stress test for Poisson-based analytical models.
type OnOff struct {
	rng     *RNG
	onRate  float64 // arrival rate while ON
	meanOn  float64 // mean ON duration (cycles)
	meanOff float64 // mean OFF duration
	next    float64
	phase   float64 // end of the current ON window
}

// NewOnOff creates a bursty process with the given long-run mean rate,
// burst factor ≥ 1 (1 degenerates to Poisson-like behaviour) and mean
// ON-period length in cycles.
func NewOnOff(rng *RNG, meanRate, burstFactor, meanOn float64) *OnOff {
	if burstFactor < 1 {
		burstFactor = 1
	}
	duty := 1 / burstFactor // fraction of time ON
	p := &OnOff{
		rng:     rng,
		onRate:  meanRate * burstFactor,
		meanOn:  meanOn,
		meanOff: meanOn * (1 - duty) / duty,
	}
	// start in the stationary phase distribution so short horizons
	// are unbiased: ON with probability duty (exponential periods are
	// memoryless, so fresh draws serve as residual lives)
	start := 0.0
	if p.meanOff > 0 && rng.Float64() >= duty {
		start = rng.ExpInterval(1 / p.meanOff)
	}
	p.phase = start + rng.ExpInterval(1/p.meanOn)
	p.next = p.draw(start)
	return p
}

// draw samples the next arrival at or after time t, skipping OFF
// periods.
func (p *OnOff) draw(t float64) float64 {
	for {
		gap := p.rng.ExpInterval(p.onRate)
		if t+gap <= p.phase {
			return t + gap
		}
		// jump to the next ON window
		t = p.phase
		if p.meanOff > 0 {
			t += p.rng.ExpInterval(1 / p.meanOff)
		}
		p.phase = t + p.rng.ExpInterval(1/p.meanOn)
	}
}

// NextArrival returns the pending arrival time.
func (p *OnOff) NextArrival() float64 { return p.next }

// Pop consumes the pending arrival and schedules the next one.
func (p *OnOff) Pop() float64 {
	t := p.next
	p.next = p.draw(t)
	return t
}
