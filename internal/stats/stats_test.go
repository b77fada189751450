package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 || !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean %v", s.Mean())
	}
	// population variance is 4; sample variance = 32/7
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestStreamMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		cut := rng.Intn(n + 1)
		var whole, a, b Stream
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*10 + 3
			whole.Add(x)
			if i < cut {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			almostEq(a.Mean(), whole.Mean(), 1e-9) &&
			almostEq(a.Variance(), whole.Variance(), 1e-7) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamReset(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(5)
	for _, v := range []int{0, 1, 1, 2, 4, 7, -1} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Clamped != 2 {
		t.Fatalf("clamped %d", h.Clamped)
	}
	// 7 lands in the overflow bucket, not in Bins[4]; -1 clamps into
	// bin 0.
	if h.Overflow != 1 || h.OverflowMax != 7 {
		t.Fatalf("overflow %d max %d", h.Overflow, h.OverflowMax)
	}
	if h.Bins[1] != 2 || h.Bins[4] != 1 || h.Bins[0] != 2 {
		t.Fatalf("bins %v", h.Bins)
	}
	if !almostEq(h.Mean(), 2, 1e-12) {
		t.Fatalf("mean %v", h.Mean())
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("median bin %d", q)
	}
	// The max rank sits in the overflow bucket → the true max, not
	// the last bin index.
	if q := h.Quantile(1.0); q != 7 {
		t.Fatalf("max quantile %d", q)
	}
	if h.Max() != 7 {
		t.Fatalf("max %d", h.Max())
	}
}

func TestHistogramNoOverflow(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{1, 3, 3, 5} {
		h.Add(v)
	}
	if h.Overflow != 0 || h.Clamped != 0 {
		t.Fatalf("spurious overflow %d clamped %d", h.Overflow, h.Clamped)
	}
	if q := h.Quantile(1.0); q != 5 {
		t.Fatalf("max quantile %d", q)
	}
	if h.Max() != 5 {
		t.Fatalf("max %d", h.Max())
	}
	if NewHistogram(4).Max() != 0 {
		t.Fatal("empty histogram max")
	}
}

// TestHistogramSparseTail pins the extreme-quantile behaviour the
// bounds validation harness relies on: with a sparse tail that
// overflows the bin range, Quantile(0.999)/Quantile(0.9999) must
// surface the overflow (via OverflowMax) exactly when the target rank
// crosses into the overflow bucket — never a silently-capped bin
// index.
func TestHistogramSparseTail(t *testing.T) {
	h := NewHistogram(1 << 10)
	// 10_000 in-range samples, then 3 tail samples beyond the cap.
	for i := 0; i < 10000; i++ {
		h.Add(i % 100)
	}
	for _, v := range []int{5000, 6000, 123456} {
		h.Add(v)
	}
	// 0.999·10003 → rank 9993, still inside the binned mass.
	if q := h.Quantile(0.999); q != 99 {
		t.Fatalf("p99.9 %d, want 99 (rank inside bins)", q)
	}
	// 0.9999·10003 → rank 10003 ≥ 10000 binned samples: overflow.
	if q := h.Quantile(0.9999); q != 123456 {
		t.Fatalf("p99.99 %d, want OverflowMax 123456", q)
	}
	if q := h.Quantile(1.0); q != 123456 {
		t.Fatalf("p100 %d, want OverflowMax 123456", q)
	}
	if h.Overflow != 3 || h.Clamped != 3 {
		t.Fatalf("overflow %d clamped %d", h.Overflow, h.Clamped)
	}
}

func TestBatchMeansIID(t *testing.T) {
	// On i.i.d. data the CI should cover the true mean most of the
	// time; with a fixed seed just assert the interval is sane.
	b := NewBatchMeans(100)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100*50; i++ {
		b.Add(rng.NormFloat64() + 10)
	}
	if b.Batches() != 50 {
		t.Fatalf("batches %d", b.Batches())
	}
	if !almostEq(b.Mean(), 10, 0.1) {
		t.Fatalf("mean %v", b.Mean())
	}
	hw := b.HalfWidth()
	if hw <= 0 || hw > 0.2 {
		t.Fatalf("half width %v", hw)
	}
	if math.Abs(b.Mean()-10) > 3*hw {
		t.Fatalf("true mean outside 3x CI: mean=%v hw=%v", b.Mean(), hw)
	}
	if rel := b.RelHalfWidth(); !almostEq(rel, hw/b.Mean(), 1e-12) {
		t.Fatalf("rel half width %v", rel)
	}
}

func TestBatchMeansEdgeCases(t *testing.T) {
	b := NewBatchMeans(10)
	if !math.IsInf(b.HalfWidth(), 1) {
		t.Fatal("half width should be +Inf with no batches")
	}
	for i := 0; i < 10; i++ {
		b.Add(1)
	}
	if !math.IsInf(b.HalfWidth(), 1) {
		t.Fatal("half width should be +Inf with one batch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatchMeans(0) did not panic")
		}
	}()
	NewBatchMeans(0)
}

func TestSeriesQuantiles(t *testing.T) {
	s := NewSeries([]float64{3, 1, 2, 4})
	if s.N() != 4 || !almostEq(s.Mean(), 2.5, 1e-12) {
		t.Fatalf("series %v %v", s.N(), s.Mean())
	}
	if !almostEq(s.Quantile(0), 1, 1e-12) || !almostEq(s.Quantile(1), 4, 1e-12) {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEq(s.Quantile(0.5), 2.5, 1e-12) {
		t.Fatalf("median %v", s.Quantile(0.5))
	}
	if !math.IsNaN(NewSeries(nil).Quantile(0.5)) {
		t.Fatal("empty series quantile should be NaN")
	}
	one := NewSeries([]float64{7})
	if one.Quantile(0.3) != 7 {
		t.Fatal("singleton quantile")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := NewSeries(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := s.Quantile(p)
			if q < prev-1e-12 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSERSyntheticTransient(t *testing.T) {
	// A decaying transient followed by stationary noise: MSER must
	// truncate near the end of the transient.
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 200)
	for i := range xs {
		base := 10.0
		if i < 40 {
			base = 10 + 50*math.Exp(-float64(i)/8)
		}
		xs[i] = base + rng.NormFloat64()
	}
	d, ok := MSER(xs)
	if !ok {
		t.Fatal("MSER found no steady state on a clearly stationary tail")
	}
	if d < 10 || d > 70 {
		t.Fatalf("MSER truncation %d far from the transient end (~40)", d)
	}
}

func TestMSERStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	d, ok := MSER(xs)
	if !ok {
		t.Fatal("stationary series rejected")
	}
	if d > 30 {
		t.Fatalf("stationary series truncated at %d", d)
	}
}

func TestMSEREdgeCases(t *testing.T) {
	if _, ok := MSER(nil); ok {
		t.Fatal("empty series accepted")
	}
	if _, ok := MSER([]float64{1, 2, 3}); ok {
		t.Fatal("tiny series accepted")
	}
	// a series that never settles (linear ramp): minimum hugs the
	// boundary, so ok must be false
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := MSER(xs); ok {
		t.Fatal("ramp series accepted as stationary")
	}
}

func TestLatencyPow2Quantiles(t *testing.T) {
	var l Latency
	if l.MeanMicros() != 0 || l.MaxMicros() != 0 || l.QuantileMicros(0.5) != 0 {
		t.Fatal("zero value not empty")
	}
	// 0 µs lands in bin 0 (bound 0), 5 µs in [4,8), 100 µs in [64,128);
	// the last bucket's bound 127 is clamped to the exact max 100.
	for _, us := range []int64{0, 5, 5, 100} {
		l.Add(time.Duration(us) * time.Microsecond)
	}
	l.Add(-time.Second) // clamped to 0
	if got := l.MeanMicros(); !almostEq(got, 22, 1e-12) {
		t.Fatalf("mean %v, want 22", got)
	}
	if l.MaxMicros() != 100 {
		t.Fatalf("max %d, want 100", l.MaxMicros())
	}
	for _, c := range []struct {
		p    float64
		want uint64
	}{{0.2, 0}, {0.4, 0}, {0.6, 7}, {0.8, 7}, {0.99, 100}} {
		if got := l.QuantileMicros(c.p); got != c.want {
			t.Fatalf("q%.2f = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestLatencyQuantileClampedToMax: a bucket's upper bound can lie
// above every observation (695 µs lands in the [512, 1024) bucket);
// the reported quantile must not exceed the exact maximum.
func TestLatencyQuantileClampedToMax(t *testing.T) {
	var l Latency
	for us := 600; us <= 695; us += 5 {
		l.Add(time.Duration(us) * time.Microsecond)
	}
	for _, p := range []float64{0.5, 0.95, 0.99, 1} {
		if q := l.QuantileMicros(p); q > l.MaxMicros() || q < 600 {
			t.Fatalf("p%v = %d µs outside the observed [600, %d]", p*100, q, l.MaxMicros())
		}
	}
	if q := l.QuantileMicros(0.99); q != 695 {
		t.Fatalf("p99 = %d µs, want the clamped max 695", q)
	}
}
