package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"starperf/internal/perm"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/torus"
)

func TestStarPathsClasses(t *testing.T) {
	for n := 2; n <= 8; n++ {
		sp, err := NewStarPaths(n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, c := range sp.Classes() {
			if c.H < 1 || c.H > stargraph.Diameter(n) {
				t.Fatalf("class %s at distance %d", c.Label, c.H)
			}
			sum += c.Count
		}
		if sum != perm.Factorial(n)-1 {
			t.Fatalf("n=%d class populations sum to %d, want n!-1=%d",
				n, sum, perm.Factorial(n)-1)
		}
	}
	if _, err := NewStarPaths(1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewStarPaths(13); err == nil {
		t.Fatal("n=13 accepted")
	}
}

// TestPathCountsMatchDFS verifies the DP's minimal-path counts
// against explicit DFS enumeration on the real graph.
func TestPathCountsMatchDFS(t *testing.T) {
	g := stargraph.MustNew(5)
	sp, err := NewStarPaths(5)
	if err != nil {
		t.Fatal(err)
	}
	countPaths := func(dst int) float64 {
		var dfs func(cur int) float64
		dfs = func(cur int) float64 {
			if cur == dst {
				return 1
			}
			var n float64
			for _, dim := range g.ProfitableDims(cur, dst, nil) {
				n += dfs(g.Neighbor(cur, dim))
			}
			return n
		}
		return dfs(0)
	}
	for idx, c := range sp.Classes() {
		// find a representative destination of this class
		rep := -1
		for v := 1; v < g.N(); v++ {
			if typeOf(g.Perm(v)).key() == c.Label {
				rep = v
				break
			}
		}
		if rep < 0 {
			t.Fatalf("class %s unpopulated", c.Label)
		}
		want := countPaths(rep)
		if got := sp.NumPaths(idx); math.Abs(got-want) > 1e-9 {
			t.Fatalf("class %s: %v paths by DP, %v by DFS", c.Label, got, want)
		}
	}
}

// TestDPMatchesExact is the central correctness test of the model's
// path machinery: the cycle-type dynamic program must agree exactly
// with brute-force enumeration of all minimal paths, for a
// non-trivial evaluator that uses every Hop field.
func TestDPMatchesExact(t *testing.T) {
	g := stargraph.MustNew(5)
	sp, err := NewStarPaths(5)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(h Hop) float64 {
		v := 0.03*float64(h.F) + 0.011*float64(h.D) + 0.007*float64(h.NegTaken)
		if h.HopNeg {
			v += 0.0042
		}
		return v
	}
	dp := make([]float64, len(sp.Classes()))
	for c0 := 0; c0 <= 1; c0++ {
		sp.BlockSums(c0, eval, dp)
		for idx, c := range sp.Classes() {
			exact := sp.ExactStarBlockSum(g, idx, c0, eval)
			if math.Abs(dp[idx]-exact) > 1e-9 {
				t.Fatalf("class %s c0=%d: DP %v, exact %v", c.Label, c0, dp[idx], exact)
			}
		}
	}
}

func TestBlockSumZeroEval(t *testing.T) {
	sp, _ := NewStarPaths(6)
	out := make([]float64, len(sp.Classes()))
	sp.BlockSums(0, func(Hop) float64 { return 0 }, out)
	for _, got := range out {
		if got != 0 {
			t.Fatalf("zero evaluator produced %v", got)
		}
	}
}

func TestBlockSumCountsHops(t *testing.T) {
	// An evaluator returning 1 per hop must sum to the class distance.
	sp, _ := NewStarPaths(6)
	out := make([]float64, len(sp.Classes()))
	sp.BlockSums(1, func(Hop) float64 { return 1 }, out)
	for idx, c := range sp.Classes() {
		if math.Abs(out[idx]-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: hop count %v, want %d", c.Label, out[idx], c.H)
		}
	}
}

func TestHopFieldConsistency(t *testing.T) {
	// Along every minimal path of a class at distance h, D must run
	// h, h-1, …, 1 and NegTaken must follow the alternation law for
	// the source colour. F varies across path sets at the same depth
	// (the whole point of eq. 7); NegTaken and HopNeg are functions of
	// depth alone via colour alternation. BlockSums averages over the
	// paths, so each field is read per distance d through path
	// averages: an average x of a field whose square averages to x²
	// leaves no path off x.
	sp, _ := NewStarPaths(5)
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	avg := func(c0, d int, field func(Hop) float64) []float64 {
		out := make([]float64, len(sp.Classes()))
		sp.BlockSums(c0, func(h Hop) float64 {
			if h.F < 1 {
				t.Fatalf("non-positive fanout %+v", h)
			}
			if h.D != d {
				return 0
			}
			return field(h)
		}, out)
		return out
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9 }
	for c0 := 0; c0 <= 1; c0++ {
		for d := 1; d <= stargraph.Diameter(5); d++ {
			hops := avg(c0, d, func(Hop) float64 { return 1 })
			neg := avg(c0, d, func(h Hop) float64 { return float64(h.NegTaken) })
			neg2 := avg(c0, d, func(h Hop) float64 { return float64(h.NegTaken * h.NegTaken) })
			hopNeg := avg(c0, d, func(h Hop) float64 { return b2f(h.HopNeg) })
			for idx, c := range sp.Classes() {
				if d > c.H {
					if hops[idx] != 0 {
						t.Fatalf("class %s c0=%d: a hop at D=%d beyond the class distance", c.Label, c0, d)
					}
					continue
				}
				k := c.H - d + 1
				want := float64(negsAfter(c0, k-1))
				if !near(hops[idx], 1) || !near(neg[idx], want) || !near(neg2[idx], want*want) ||
					!near(hopNeg[idx], b2f(hopNegAt(c0, k))) {
					t.Fatalf("class %s c0=%d hop k=%d (D=%d): path averages hops %v, NegTaken %v, NegTaken² %v, HopNeg %v",
						c.Label, c0, k, d, hops[idx], neg[idx], neg2[idx], hopNeg[idx])
				}
			}
		}
	}
}

// TestBlockSumsEvalCount: BlockSums solves all classes of one colour
// in one pass per distance h0 over the states at distance 1..h0, so
// it calls the evaluator Σ_h0 |states at distance 1..h0| times.
func TestBlockSumsEvalCount(t *testing.T) {
	sp, err := NewStarPaths(7)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTorusPaths(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		paths PathStructure
		want  int
	}{{"S7", sp, 123}, {"T16x4", tp, 8382}} {
		classes := c.paths.Classes()
		prefix := map[int]int{} // h0 -> classes at distance ≤ h0
		diam := 0
		for _, cl := range classes {
			diam = max(diam, cl.H)
		}
		formula := 0
		for h0 := 1; h0 <= diam; h0++ {
			for _, cl := range classes {
				if cl.H <= h0 {
					prefix[h0]++
				}
			}
			formula += prefix[h0]
		}
		calls := 0
		c.paths.BlockSums(0, func(Hop) float64 { calls++; return 0 }, make([]float64, len(classes)))
		if calls != c.want || formula != c.want {
			t.Errorf("%s: %d evaluator calls per BlockSums (Σ_h0 prefix sizes %d), want %d", c.name, calls, formula, c.want)
		}
	}
}

func TestCubePaths(t *testing.T) {
	cp, err := NewCubePaths(7)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range cp.Classes() {
		sum += c.Count
	}
	if sum != 127 {
		t.Fatalf("Q7 class populations sum to %d, want 127", sum)
	}
	// h=3 class: F must equal D at every hop, and hops sum to 3.
	idx := 2
	if cp.Classes()[idx].H != 3 {
		t.Fatalf("class order unexpected")
	}
	out := make([]float64, len(cp.Classes()))
	hops := 0
	cp.BlockSums(0, func(h Hop) float64 {
		hops++
		if h.F != h.D {
			t.Fatalf("cube hop F=%d D=%d", h.F, h.D)
		}
		return 1
	}, out)
	if hops != 28 || out[idx] != 3 {
		t.Fatalf("Q7 evaluated %d hops (want 1+…+7 = 28), class h=3 summed %v hops", hops, out[idx])
	}
	if _, err := NewCubePaths(0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestNegsAlternation(t *testing.T) {
	// negsAfter(c0, j) − negsAfter(c0, j−1) must be 1 exactly when
	// hop j is negative.
	for c0 := 0; c0 <= 1; c0++ {
		for j := 1; j <= 10; j++ {
			delta := negsAfter(c0, j) - negsAfter(c0, j-1)
			neg := hopNegAt(c0, j)
			if (delta == 1) != neg || delta < 0 || delta > 1 {
				t.Fatalf("c0=%d j=%d delta=%d neg=%v", c0, j, delta, neg)
			}
		}
	}
}

func BenchmarkStarPathsBuildS8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := buildStarPaths(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockSumS8(b *testing.B) {
	sp, _ := NewStarPaths(8)
	eval := func(h Hop) float64 { return 0.01 * float64(h.F) }
	out := make([]float64, len(sp.Classes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.BlockSums(i&1, eval, out)
	}
}

// TestPathsConcurrentEvaluate: one StarPaths and one TorusPaths shared
// by concurrent evaluations, and by concurrent BlockSums calls each
// into its own out slice, give every goroutine the serial result (and
// no data race under -race).
func TestPathsConcurrentEvaluate(t *testing.T) {
	configs := func(sp *StarPaths) []Config {
		tp, err := NewTorusPaths(8, 3)
		if err != nil {
			t.Fatal(err)
		}
		return []Config{
			{Paths: sp, Top: stargraph.MustNew(5), Kind: routing.EnhancedNbc, V: 6, MsgLen: 32, Rate: 0.01},
			{Paths: tp, Top: torus.MustNew(8, 3), Kind: routing.EnhancedNbc, V: 8, MsgLen: 16, Rate: 0.004},
		}
	}
	// the serial reference runs on its own structures (a private S5
	// build, since NewStarPaths interns one shared instance per n)
	ref, err := buildStarPaths(5)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(h Hop) float64 { return 0.01*float64(h.F) + 0.003*float64(h.NegTaken) }
	want := make([]float64, 2)
	wantSums := make([][]float64, 2)
	for i, cfg := range configs(ref) {
		r, err := Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Latency
		wantSums[i] = make([]float64, len(cfg.Paths.Classes()))
		cfg.Paths.BlockSums(1, eval, wantSums[i])
	}
	cfgs := configs(mustStarPaths(t, 5))
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(cfgs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cfg := range cfgs {
				r, err := Evaluate(cfg)
				switch {
				case err != nil:
					errs <- err
				case math.Float64bits(r.Latency) != math.Float64bits(want[i]):
					errs <- fmt.Errorf("%s: concurrent latency %v, serial %v", cfg.Top.Name(), r.Latency, want[i])
				}
				out := make([]float64, len(wantSums[i]))
				cfg.Paths.BlockSums(1, eval, out)
				for idx := range out {
					if math.Float64bits(out[idx]) != math.Float64bits(wantSums[i][idx]) {
						errs <- fmt.Errorf("%s class %d: concurrent BlockSums %v, serial %v", cfg.Top.Name(), idx, out[idx], wantSums[i][idx])
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
