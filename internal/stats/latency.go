package stats

import (
	"math/bits"
	"time"
)

// latencyBins bounds the power-of-two microsecond histogram: bin i
// counts latencies in [2^(i-1), 2^i) µs, so 40 bins reach ~6 days.
const latencyBins = 40

// Latency summarises durations at microsecond resolution: an exact
// mean, minimum and maximum, and quantiles read off power-of-two
// buckets — a reported quantile is its bucket's upper bound clamped
// to the exact maximum, so it is never above the largest observation
// and at most 2× the true value. The zero value is ready
// to use.
type Latency struct {
	exact Stream
	hist  Histogram
}

// Add folds one duration; negative durations count as zero.
func (l *Latency) Add(d time.Duration) {
	us := max(d.Microseconds(), 0)
	if l.hist.Bins == nil {
		l.hist.Bins = make([]uint64, latencyBins)
	}
	l.exact.Add(float64(us))
	l.hist.Add(bits.Len64(uint64(us)))
}

// MeanMicros returns the exact mean in µs (0 when empty).
func (l *Latency) MeanMicros() float64 { return l.exact.Mean() }

// MaxMicros returns the exact maximum in µs (0 when empty).
func (l *Latency) MaxMicros() uint64 { return uint64(l.exact.Max()) }

// QuantileMicros returns the upper bound in µs of the bucket holding
// the p-quantile, p ∈ (0,1], clamped to the exact maximum (0 when
// empty).
func (l *Latency) QuantileMicros(p float64) uint64 {
	bin := l.hist.Quantile(p)
	if bin <= 0 {
		return 0
	}
	q := uint64(1)<<uint(bin) - 1
	return min(q, uint64(l.exact.Max()))
}
