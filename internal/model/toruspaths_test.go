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
		dp := make([]float64, len(tp.Classes()))
		for c0 := 0; c0 <= 1; c0++ {
			tp.BlockSums(c0, eval, dp)
			for idx, c := range tp.Classes() {
				exact, paths := exactTorusBlockSum(t, g, tp, idx, c0, eval)
				if math.Abs(dp[idx]-exact) > 1e-9 {
					t.Fatalf("T%dx%d class %s c0=%d: DP %v, exact %v (paths %v vs %v)",
						k, n, c.Label, c0, dp[idx], exact, tp.NumPaths(idx), paths)
				}
			}
		}
	}
}

// exactTorusBlockSum enumerates every minimal path of the concrete
// torus g from node 0 to a destination of class idx and returns the
// average of Σ_k eval(hop k) over them, with the number of paths: the
// torus twin of ExactStarBlockSum.
func exactTorusBlockSum(t testing.TB, g *torus.Graph, tp *TorusPaths, idx, c0 int, eval HopEvaluator) (avg, paths float64) {
	t.Helper()
	c := tp.Classes()[idx]
	// find a destination matching this class's offset vector
	rep := -1
	for v := 1; v < g.N(); v++ {
		if g.Distance(0, v) == c.H && torusVecOf(g, v, g.Dims()) == c.Label {
			rep = v
			break
		}
	}
	if rep < 0 {
		t.Fatalf("class %s unpopulated", c.Label)
	}
	var total float64
	var dfs func(cur, k int, acc float64)
	dfs = func(cur, k int, acc float64) {
		if cur == rep {
			paths++
			total += acc
			return
		}
		dims := g.ProfitableDims(cur, rep, nil)
		hop := Hop{
			F: len(dims), D: g.Distance(cur, rep),
			NegTaken: negsAfter(c0, k-1), HopNeg: hopNegAt(c0, k),
		}
		p := eval(hop)
		for _, dim := range dims {
			dfs(g.Neighbor(cur, dim), k+1, acc+p)
		}
	}
	dfs(0, 1, 0)
	return total / paths, paths
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
	out := make([]float64, len(tp.Classes()))
	tp.BlockSums(0, func(Hop) float64 { return 1 }, out)
	for idx, c := range tp.Classes() {
		if math.Abs(out[idx]-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: hop count %v, want %d", c.Label, out[idx], c.H)
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

// TestTorusBlockSumDeterministic: BlockSums sums each state's
// transitions in one fixed order, so repeated calls return the same
// bits for every class.
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
		first := make([]float64, len(tp.Classes()))
		out := make([]float64, len(tp.Classes()))
		for c0 := 0; c0 <= 1; c0++ {
			tp.BlockSums(c0, eval, first)
			for rep := 1; rep < 50; rep++ {
				tp.BlockSums(c0, eval, out)
				for idx, c := range tp.Classes() {
					if got, want := math.Float64bits(out[idx]), math.Float64bits(first[idx]); got != want {
						t.Fatalf("T%dx%d class %s c0=%d: call %d returned bits %x, first call %x",
							k, n, c.Label, c0, rep, got, want)
					}
				}
			}
		}
	}
}

// TestTorusLargeSystemBlockSum: on a 495-state system, BlockSums must
// equal a per-class dynamic program over every state below the class
// root (values of states off the class's paths are never read), bit
// for bit, and with a unit evaluator the hop count.
func TestTorusLargeSystemBlockSum(t *testing.T) {
	tp, err := NewTorusPaths(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tp.dist); n != 495 {
		t.Fatalf("T16x4 has %d states, want 495", n)
	}
	eval := func(h Hop) float64 {
		v := 0.021*float64(h.F) + 0.013*math.Sqrt(float64(h.D)) + 0.005*float64(h.NegTaken)
		if h.HopNeg {
			v += 0.003
		}
		return v
	}
	out := make([]float64, len(tp.Classes()))
	tp.BlockSums(0, func(Hop) float64 { return 1 }, out)
	for idx, c := range tp.Classes() {
		if math.Abs(out[idx]-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: unit BlockSums %v, want %d hops", c.Label, out[idx], c.H)
		}
	}
	val := make([]float64, len(tp.dist))
	for c0 := 0; c0 <= 1; c0++ {
		tp.BlockSums(c0, eval, out)
		for idx, c := range tp.Classes() {
			root := int32(idx + 1)
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
			if got := out[idx]; math.Float64bits(got) != math.Float64bits(val[root]) {
				t.Fatalf("class %s c0=%d: BlockSums %v, full DP %v", c.Label, c0, got, val[root])
			}
		}
	}
}

// TestTorusPathsSizeBound: every torus NewTorusPaths accepts has at
// most 58,905 offset-vector states (the 64-ary 4-cube) and diameter at
// most 128, and rings of huge radix, which the node bound alone lets
// through, are refused before any state is built.
func TestTorusPathsSizeBound(t *testing.T) {
	maxStates, maxDiam := 0.0, 0
	for k := 2; k <= maxTorusRadix; k += 2 {
		for n := 1; ; n++ {
			if _, err := torus.Nodes(k, n); err != nil {
				break
			}
			maxStates = math.Max(maxStates, binomF(k/2+n, n))
			maxDiam = max(maxDiam, n*k/2)
		}
	}
	if maxStates != 58905 || maxDiam != 128 {
		t.Fatalf("accepted tori reach %v states and diameter %d, want 58905 and 128", maxStates, maxDiam)
	}
	for _, kn := range [][2]int{{maxTorusRadix + 2, 1}, {8192, 2}, {1 << 26, 1}} {
		if _, err := NewTorusPaths(kn[0], kn[1]); err == nil {
			t.Fatalf("NewTorusPaths(%d, %d) accepted a radix above %d", kn[0], kn[1], maxTorusRadix)
		}
	}
}
