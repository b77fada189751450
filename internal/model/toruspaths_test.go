package model

import (
	"math"
	"testing"

	"starperf/internal/routing"
	"starperf/internal/torus"
)

func TestTorusClassesPopulation(t *testing.T) {
	for _, kn := range [][2]int{{4, 1}, {4, 2}, {6, 2}, {4, 3}, {8, 3}} {
		k, n := kn[0], kn[1]
		tp, err := NewTorusPaths(k, n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		nodes := uint64(1)
		for i := 0; i < n; i++ {
			nodes *= uint64(k)
		}
		for _, c := range tp.Classes() {
			sum += c.Count
		}
		if sum != nodes-1 {
			t.Fatalf("T%dx%d class populations sum to %d, want %d", k, n, sum, nodes-1)
		}
	}
	if _, err := NewTorusPaths(5, 2); err == nil {
		t.Fatal("odd radix accepted")
	}
	if _, err := NewTorusPaths(4, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestTorusClassHistogramMatchesGraph compares the class populations
// per distance with the concrete torus graph.
func TestTorusClassHistogramMatchesGraph(t *testing.T) {
	g := torus.MustNew(6, 2)
	tp, err := NewTorusPaths(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{}
	for v := 1; v < g.N(); v++ {
		want[g.Distance(0, v)]++
	}
	got := map[int]uint64{}
	for _, c := range tp.Classes() {
		got[c.H] += c.Count
	}
	for h, w := range want {
		if got[h] != w {
			t.Fatalf("distance %d: %d destinations, want %d", h, got[h], w)
		}
	}
}

// TestTorusDPMatchesExact validates the offset-vector DP against
// brute-force path enumeration on real tori.
func TestTorusDPMatchesExact(t *testing.T) {
	for _, kn := range [][2]int{{4, 2}, {6, 2}} {
		k, n := kn[0], kn[1]
		g := torus.MustNew(k, n)
		tp, err := NewTorusPaths(k, n)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(h Hop) float64 {
			v := 0.021*float64(h.F) + 0.013*float64(h.D) + 0.005*float64(h.NegTaken)
			if h.HopNeg {
				v += 0.003
			}
			return v
		}
		for idx, c := range tp.Classes() {
			// find a destination matching this class's offset vector
			rep := -1
			for v := 1; v < g.N(); v++ {
				if g.Distance(0, v) == c.H && torusVecOf(g, v, n) == c.Label {
					rep = v
					break
				}
			}
			if rep < 0 {
				t.Fatalf("class %s unpopulated", c.Label)
			}
			for c0 := 0; c0 <= 1; c0++ {
				var paths, total float64
				var dfs func(cur, k int, acc float64)
				dfs = func(cur, kk int, acc float64) {
					if cur == rep {
						paths++
						total += acc
						return
					}
					dims := g.ProfitableDims(cur, rep, nil)
					hop := Hop{
						F: len(dims), D: g.Distance(cur, rep),
						NegTaken: negsAfter(c0, kk-1), HopNeg: hopNegAt(c0, kk),
					}
					p := eval(hop)
					for _, dim := range dims {
						dfs(g.Neighbor(cur, dim), kk+1, acc+p)
					}
				}
				dfs(0, 1, 0)
				exact := total / paths
				dp := tp.BlockSum(idx, c0, eval)
				if math.Abs(dp-exact) > 1e-9 {
					t.Fatalf("T%dx%d class %s c0=%d: DP %v, exact %v (paths %v vs %v)",
						k, n, c.Label, c0, dp, exact, tp.NumPaths(idx), paths)
				}
			}
		}
	}
}

// torusVecOf recovers the sorted per-dimension minimal offset vector
// of a destination, as a class label.
func torusVecOf(g *torus.Graph, dst, n int) string {
	offs := make([]int, n)
	// derive digits arithmetically (same address layout as torus.New)
	pow := 1
	for i := 0; i < n; i++ {
		digit := dst / pow % g.Radix()
		o := digit
		if o > g.Radix()-o {
			o = g.Radix() - o
		}
		offs[i] = o
		pow *= g.Radix()
	}
	// sort descending
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j] > offs[j-1]; j-- {
			offs[j], offs[j-1] = offs[j-1], offs[j]
		}
	}
	return vecKey(offs)
}

func TestTorusBlockSumHopCount(t *testing.T) {
	tp, err := NewTorusPaths(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for idx, c := range tp.Classes() {
		got := tp.BlockSum(idx, 0, func(Hop) float64 { return 1 })
		if math.Abs(got-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: hop count %v, want %d", c.Label, got, c.H)
		}
	}
}

// TestTorusModelEndToEnd evaluates the full latency model on a torus.
func TestTorusModelEndToEnd(t *testing.T) {
	g := torus.MustNew(4, 2)
	tp, err := NewTorusPaths(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(Config{
		Paths: tp, Top: g, Kind: routing.EnhancedNbc, V: 4, MsgLen: 16, Rate: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	zero := 16 + g.AvgDistance() + 1
	if r.Latency <= zero || r.Latency > 4*zero {
		t.Fatalf("torus latency %v implausible (zero-load %v)", r.Latency, zero)
	}
}

// TestTorusBlockSumDeterministic: BlockSum sums each state's
// transitions in one fixed order, so repeated calls on the same class
// return the same bits.
func TestTorusBlockSumDeterministic(t *testing.T) {
	eval := func(h Hop) float64 {
		v := 0.021*float64(h.F) + 0.013*math.Sqrt(float64(h.D)) + 0.005*float64(h.NegTaken)
		if h.HopNeg {
			v += 0.003
		}
		return v
	}
	for _, kn := range [][2]int{{8, 3}, {16, 3}, {8, 4}, {10, 4}} {
		k, n := kn[0], kn[1]
		tp, err := NewTorusPaths(k, n)
		if err != nil {
			t.Fatal(err)
		}
		for idx, c := range tp.Classes() {
			for c0 := 0; c0 <= 1; c0++ {
				first := math.Float64bits(tp.BlockSum(idx, c0, eval))
				for rep := 1; rep < 50; rep++ {
					if got := math.Float64bits(tp.BlockSum(idx, c0, eval)); got != first {
						t.Fatalf("T%dx%d class %s c0=%d: call %d returned bits %x, first call %x",
							k, n, c.Label, c0, rep, got, first)
					}
				}
			}
		}
	}
}

// TestTorusLargeSystemBlockSum: a transition system above smallStates
// stores no per-class visited-state lists and finds them on each
// BlockSum call. Its sums must equal a dynamic program over every
// state below the class root (values of states off the class's paths
// are never read), bit for bit, and with a unit evaluator the hop
// count.
func TestTorusLargeSystemBlockSum(t *testing.T) {
	tp, err := NewTorusPaths(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tp.dist); n <= smallStates || tp.reach != nil {
		t.Fatalf("T16x4 has %d states (reach stored: %v), want a system above %d without stored lists", n, tp.reach != nil, smallStates)
	}
	eval := func(h Hop) float64 {
		v := 0.021*float64(h.F) + 0.013*math.Sqrt(float64(h.D)) + 0.005*float64(h.NegTaken)
		if h.HopNeg {
			v += 0.003
		}
		return v
	}
	val := make([]float64, len(tp.dist))
	for idx, c := range tp.Classes() {
		if got := tp.BlockSum(idx, 0, func(Hop) float64 { return 1 }); math.Abs(got-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: unit BlockSum %v, want %d hops", c.Label, got, c.H)
		}
		for c0 := 0; c0 <= 1; c0++ {
			root := tp.root[idx]
			h0 := int(tp.dist[root])
			clear(val)
			for s := int32(1); s <= root; s++ {
				d := int(tp.dist[s])
				k := h0 - d + 1
				sum := eval(Hop{F: int(tp.pathDP.fanout[s]), D: d, NegTaken: negsAfter(c0, k-1), HopNeg: hopNegAt(c0, k)})
				for i := tp.trOff[s]; i < tp.trOff[s+1]; i++ {
					sum += tp.trW[i] * val[tp.trTo[i]]
				}
				val[s] = sum
			}
			if got := tp.BlockSum(idx, c0, eval); math.Float64bits(got) != math.Float64bits(val[root]) {
				t.Fatalf("class %s c0=%d: BlockSum %v, full DP %v", c.Label, c0, got, val[root])
			}
		}
	}
}
