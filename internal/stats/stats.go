// Package stats provides the streaming statistics used by the
// simulator and the experiment harness: Welford mean/variance
// accumulators, integer histograms, batch-means confidence intervals
// and simple series summaries. Everything is allocation-light and
// suitable for per-cycle hot paths.
package stats

import (
	"fmt"
	"math"
)

// Stream is a single-pass mean/variance accumulator (Welford's
// algorithm). The zero value is ready to use.
type Stream struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 when empty).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// String summarises the stream.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Histogram counts integer-valued observations in [0, n), n fixed at
// construction. Bins grows on demand to one past the largest in-range
// value seen, so bins beyond it are implicitly zero and a run that
// stays far below n never pays for n bins. Negative values are
// clamped into bin 0; values at or above n land in an explicit
// overflow bucket (Overflow count plus the largest value seen,
// OverflowMax) instead of silently inflating the last bin, so a
// capped tail stays detectable. Clamped counts every out-of-range
// observation in either direction.
type Histogram struct {
	Bins        []uint64
	Clamped     uint64
	Overflow    uint64
	OverflowMax int
	n           int
	total       uint64
	sum         float64
}

// NewHistogram returns an empty histogram over [0, n).
func NewHistogram(n int) *Histogram { return &Histogram{n: n} }

// Add counts one observation.
func (h *Histogram) Add(v int) {
	h.total++
	h.sum += float64(v)
	if v < 0 {
		h.Clamped++
		v = 0
	} else if v >= h.n {
		h.Clamped++
		h.Overflow++
		if v > h.OverflowMax {
			h.OverflowMax = v
		}
		return
	}
	if v >= len(h.Bins) {
		h.Bins = append(h.Bins, make([]uint64, v+1-len(h.Bins))...)
	}
	h.Bins[v]++
}

// Total returns the observation count.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the mean of the raw (unclamped) observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the smallest bin index q such that at least
// p·Total() observations fall in bins 0..q. p must be in (0,1].
// When the target rank falls inside the overflow bucket (the
// observation is off the right edge of the bin range), Quantile
// returns OverflowMax — a conservative upper estimate rather than a
// silently-capped n-1.
func (h *Histogram) Quantile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	var cum uint64
	for i, c := range h.Bins {
		cum += c
		if cum >= target {
			return i
		}
	}
	if h.Overflow > 0 {
		return h.OverflowMax
	}
	return h.n - 1
}

// Max returns the largest observed value: OverflowMax when any
// observation overflowed, otherwise the highest non-empty bin (0 when
// empty).
func (h *Histogram) Max() int {
	if h.Overflow > 0 {
		return h.OverflowMax
	}
	for i := len(h.Bins) - 1; i >= 0; i-- {
		if h.Bins[i] > 0 {
			return i
		}
	}
	return 0
}

// MSER computes the MSER truncation point of a time series: the
// prefix length d minimising
//
//	MSER(d) = Σ_{i≥d} (x_i − x̄_d)² / (n−d)²
//
// where x̄_d is the mean of the retained suffix. It is the standard
// data-driven warm-up detector for steady-state simulations (White,
// 1997). The search is restricted to d ≤ n/2; ok is false when the
// minimum sits at the boundary (no steady state detected) or the
// series is shorter than 8 points.
func MSER(xs []float64) (d int, ok bool) {
	n := len(xs)
	if n < 8 {
		return 0, false
	}
	// suffix sums for O(n) evaluation
	sum := make([]float64, n+1)
	sum2 := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sum[i] = sum[i+1] + xs[i]
		sum2[i] = sum2[i+1] + xs[i]*xs[i]
	}
	best, bestD := math.Inf(1), 0
	for cut := 0; cut <= n/2; cut++ {
		m := float64(n - cut)
		mean := sum[cut] / m
		sse := sum2[cut] - m*mean*mean
		if sse < 0 {
			sse = 0
		}
		v := sse / (m * m)
		if v < best {
			best, bestD = v, cut
		}
	}
	return bestD, bestD < n/2
}
