package model

import (
	"errors"
	"math"
	"testing"

	"starperf/internal/hypercube"
	"starperf/internal/queueing"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/torus"
)

func TestZeroLoadClosedForm(t *testing.T) {
	g := stargraph.MustNew(5)
	r, err := EvaluateStar(5, 6, 32, 0, routing.EnhancedNbc, Window)
	if err != nil {
		t.Fatal(err)
	}
	want := 32 + g.AvgDistance() + 1
	if math.Abs(r.Latency-want) > 1e-6 {
		t.Fatalf("zero-load latency %v, want %v", r.Latency, want)
	}
	if r.Multiplexing != 1 || r.SourceWait != 0 || r.ChannelWait != 0 || r.MeanBlocking != 0 {
		t.Fatalf("zero-load result not clean: %+v", r)
	}
	if !r.Converged {
		t.Fatal("zero load did not converge")
	}
}

func TestLatencyMonotoneInRate(t *testing.T) {
	prev := 0.0
	for _, rate := range []float64{0.001, 0.004, 0.008, 0.012} {
		r, err := EvaluateStar(5, 6, 32, rate, routing.EnhancedNbc, Window)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if r.Latency <= prev {
			t.Fatalf("latency %v at rate %v not above %v", r.Latency, rate, prev)
		}
		prev = r.Latency
	}
}

func TestSaturationError(t *testing.T) {
	_, err := EvaluateStar(5, 6, 32, 0.05, routing.EnhancedNbc, Window)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
}

func TestLongerMessagesSaturateEarlier(t *testing.T) {
	s32 := mustSat(t, Config{
		Paths: mustStarPaths(t, 5), Top: stargraph.MustNew(5),
		Kind: routing.EnhancedNbc, V: 6, MsgLen: 32,
	}, 0.0005, 0.05)
	s64 := mustSat(t, Config{
		Paths: mustStarPaths(t, 5), Top: stargraph.MustNew(5),
		Kind: routing.EnhancedNbc, V: 6, MsgLen: 64,
	}, 0.0005, 0.05)
	if s64 >= s32 {
		t.Fatalf("M=64 saturation %v not below M=32's %v", s64, s32)
	}
	// both must lie below the physical bisection bandwidth bound
	// λg_max = (n−1)/(d̄·M)
	g := stargraph.MustNew(5)
	if s32 >= 4/(g.AvgDistance()*32) || s64 >= 4/(g.AvgDistance()*64) {
		t.Fatalf("saturation rates exceed channel capacity: %v %v", s32, s64)
	}
}

func TestMoreVCsRaiseSaturation(t *testing.T) {
	base := Config{
		Paths: mustStarPaths(t, 5), Top: stargraph.MustNew(5),
		Kind: routing.EnhancedNbc, MsgLen: 32,
	}
	b6, b12 := base, base
	b6.V, b12.V = 6, 12
	s6 := mustSat(t, b6, 0.0005, 0.05)
	s12 := mustSat(t, b12, 0.0005, 0.05)
	if s12 <= s6 {
		t.Fatalf("V=12 saturation %v not above V=6's %v", s12, s6)
	}
}

func mustSat(t *testing.T, cfg Config, lo, hi float64) float64 {
	t.Helper()
	s, err := SaturationRate(cfg, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustStarPaths(t *testing.T, n int) *StarPaths {
	t.Helper()
	sp, err := NewStarPaths(n)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestValidationErrors(t *testing.T) {
	sp := mustStarPaths(t, 4)
	g := stargraph.MustNew(4)
	cases := []Config{
		{},
		{Paths: sp},
		{Paths: sp, Top: g, V: 4, MsgLen: 0, Rate: 0.001},
		{Paths: sp, Top: g, V: 4, MsgLen: 16, Rate: -0.001},
		{Paths: sp, Top: g, V: 1, MsgLen: 16, Rate: 0.001}, // V below minimum
	}
	for i, cfg := range cases {
		if _, err := Evaluate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestBlockingModelVariants(t *testing.T) {
	// All three variants must agree at zero load and stay ordered by
	// Jensen's inequality at moderate load: for f ≥ 1 and a fixed
	// mixture, mean^f ≤ mean of powers, so the inside-power variant
	// predicts less blocking and hence lower latency.
	var lat [3]float64
	for i, b := range []BlockingModel{Window, PaperInsidePower, PaperOutsidePower} {
		r, err := EvaluateStar(5, 6, 32, 0.01, routing.EnhancedNbc, b)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		lat[i] = r.Latency
	}
	if lat[1] > lat[2]+1e-9 {
		t.Fatalf("inside-power latency %v above outside-power %v", lat[1], lat[2])
	}
	// sanity: all within a factor of 2 of each other at this load
	for i := 1; i < 3; i++ {
		if lat[i] < lat[0]/2 || lat[i] > lat[0]*2 {
			t.Fatalf("variant %d latency %v wildly different from window %v", i, lat[i], lat[0])
		}
	}
	if Window.String() == "" || PaperInsidePower.String() == "" ||
		PaperOutsidePower.String() == "" || BlockingModel(9).String() != "unknown" {
		t.Fatal("BlockingModel.String broken")
	}
}

func TestNHopAndNbcModels(t *testing.T) {
	// The model must also evaluate the escape-only schemes; Nbc's
	// windows dominate NHop's single level, so NHop blocks at least
	// as often and is at least as slow.
	rNH, err := EvaluateStar(5, 4, 32, 0.006, routing.NHop, Window)
	if err != nil {
		t.Fatal(err)
	}
	rNbc, err := EvaluateStar(5, 4, 32, 0.006, routing.Nbc, Window)
	if err != nil {
		t.Fatal(err)
	}
	rEn, err := EvaluateStar(5, 6, 32, 0.006, routing.EnhancedNbc, Window)
	if err != nil {
		t.Fatal(err)
	}
	if rNH.MeanBlocking < rNbc.MeanBlocking-1e-12 {
		t.Fatalf("NHop blocking %v below Nbc %v", rNH.MeanBlocking, rNbc.MeanBlocking)
	}
	if rNH.Latency < rNbc.Latency-1e-9 {
		t.Fatalf("NHop latency %v below Nbc %v", rNH.Latency, rNbc.Latency)
	}
	if rEn.MeanBlocking > rNbc.MeanBlocking+1e-12 {
		t.Fatalf("Enhanced-Nbc blocking %v above Nbc %v", rEn.MeanBlocking, rNbc.MeanBlocking)
	}
}

func TestHypercubeModel(t *testing.T) {
	cp, err := NewCubePaths(7)
	if err != nil {
		t.Fatal(err)
	}
	g := hypercube.MustNew(7)
	r, err := Evaluate(Config{
		Paths: cp, Top: g, Kind: routing.EnhancedNbc, V: 6, MsgLen: 32, Rate: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	zero := 32 + g.AvgDistance() + 1
	if r.Latency <= zero || r.Latency > 4*zero {
		t.Fatalf("Q7 latency %v implausible (zero-load %v)", r.Latency, zero)
	}
}

func TestResultDiagnostics(t *testing.T) {
	r, err := EvaluateStar(5, 9, 32, 0.012, routing.EnhancedNbc, Window)
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization <= 0 || r.Utilization >= 1 {
		t.Fatalf("utilization %v", r.Utilization)
	}
	var sum float64
	for _, p := range r.VCOccupancy {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("occupancy sums to %v", sum)
	}
	if r.Multiplexing < 1 || r.Multiplexing > 9 {
		t.Fatalf("multiplexing %v", r.Multiplexing)
	}
	if r.MeanBlocking < 0 || r.MeanBlocking > 1 {
		t.Fatalf("mean blocking %v", r.MeanBlocking)
	}
	if got := queueing.Multiplexing(r.VCOccupancy); math.Abs(got-r.Multiplexing) > 1e-12 {
		t.Fatal("multiplexing inconsistent with occupancy")
	}
}

func TestEligibleCountBounds(t *testing.T) {
	g := stargraph.MustNew(5)
	spec := routing.MustNew(routing.EnhancedNbc, g, 6)
	occ := queueing.VCOccupancy(0.01, 40, 6)
	bs := newBlockingState(spec, Window)
	bs.update(occ)
	for d := 1; d <= 6; d++ {
		for lvl := 0; lvl <= 3; lvl++ {
			for _, neg := range []bool{true, false} {
				h := Hop{F: 2, D: d, NegTaken: lvl, HopNeg: neg}
				s := bs.eligibleCount(lvl, h)
				if s < spec.V1 || s > spec.V() {
					t.Fatalf("eligible count %d outside [V1,V] for %+v", s, h)
				}
			}
		}
	}
	if bs.pvc0 <= 0 || bs.pvc0 > 1 {
		t.Fatalf("pvc0 %v", bs.pvc0)
	}
}

func TestEvalBlockingBounds(t *testing.T) {
	g := stargraph.MustNew(5)
	spec := routing.MustNew(routing.EnhancedNbc, g, 6)
	for _, mode := range []BlockingModel{Window, PaperInsidePower, PaperOutsidePower} {
		bs := newBlockingState(spec, mode)
		bs.update(queueing.VCOccupancy(0.02, 50, 6))
		for f := 0; f <= 4; f++ {
			for d := 1; d <= 6; d++ {
				p := bs.Eval(Hop{F: f, D: d, NegTaken: 1, HopNeg: d%2 == 0})
				if p < 0 || p > 1 {
					t.Fatalf("%v: blocking %v for f=%d d=%d", mode, p, f, d)
				}
				if f == 0 && p != 0 {
					t.Fatalf("f=0 must not block")
				}
			}
		}
	}
}

func BenchmarkEvaluateS5(b *testing.B) {
	sp, _ := NewStarPaths(5)
	g := stargraph.MustNew(5)
	cfg := Config{Paths: sp, Top: g, Kind: routing.EnhancedNbc, V: 6, MsgLen: 32, Rate: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateS7(b *testing.B) {
	sp, _ := NewStarPaths(7)
	g := stargraph.MustNew(7)
	cfg := Config{Paths: sp, Top: g, Kind: routing.EnhancedNbc, V: 8, MsgLen: 32, Rate: 0.002}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateT16x4 is the predict suite's evaluate_t16x4 row:
// 494 offset-vector classes, Enhanced-Nbc (V ≥ 18), M=16, 9 fixed-point
// iterations.
func BenchmarkEvaluateT16x4(b *testing.B) {
	tp, _ := NewTorusPaths(16, 4)
	cfg := Config{Paths: tp, Top: torus.MustNew(16, 4), Kind: routing.EnhancedNbc, V: 20, MsgLen: 16, Rate: 0.006}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPerClassDecomposition(t *testing.T) {
	r, err := EvaluateStar(5, 6, 32, 0.01, routing.EnhancedNbc, Window)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerClass) == 0 {
		t.Fatal("no per-class decomposition")
	}
	var weighted, wsum float64
	prevByH := map[int]float64{}
	for _, c := range r.PerClass {
		if c.NetLatency < 32+float64(c.H) {
			t.Fatalf("class %s latency %v below M+h", c.Label, c.NetLatency)
		}
		if c.Blocking < 0 {
			t.Fatalf("class %s negative blocking %v", c.Label, c.Blocking)
		}
		weighted += c.Weight * c.NetLatency
		wsum += c.Weight
		if c.NetLatency > prevByH[c.H] {
			prevByH[c.H] = c.NetLatency
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("class weights sum to %v", wsum)
	}
	if math.Abs(weighted-r.NetLatency) > 0.5 {
		t.Fatalf("weighted class latency %v vs S̄ %v (damped iterate)", weighted, r.NetLatency)
	}
	// farther classes must cost at least as much as the nearest ones
	if prevByH[1] >= prevByH[6] {
		t.Fatalf("distance-1 classes (%v) not cheaper than distance-6 (%v)",
			prevByH[1], prevByH[6])
	}
}
