package stargraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"starperf/internal/perm"
	"starperf/internal/topology"
)

// bfsFromIdentity computes exact distances from node 0 by BFS, used
// as ground truth against the closed-form formula.
func bfsFromIdentity(g *Graph) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for dim := 0; dim < g.Degree(); dim++ {
			w := g.Neighbor(v, dim)
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestDistanceFormulaMatchesBFS(t *testing.T) {
	for n := 2; n <= 7; n++ {
		g := MustNew(n)
		bfs := bfsFromIdentity(g)
		for v := 0; v < g.N(); v++ {
			if bfs[v] != g.DistanceToID(v) {
				t.Fatalf("S%d node %v: formula %d, BFS %d",
					n, g.Perm(v), g.DistanceToID(v), bfs[v])
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	want := map[int]int{2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9}
	for n, w := range want {
		if got := Diameter(n); got != w {
			t.Errorf("Diameter(%d) = %d, want %d", n, got, w)
		}
		g := MustNew(n)
		max := 0
		for v := 0; v < g.N(); v++ {
			if d := g.DistanceToID(v); d > max {
				max = d
			}
		}
		if max != w {
			t.Errorf("S%d observed max distance %d, want diameter %d", n, max, w)
		}
	}
}

func TestDistanceSymmetryAndTriangle(t *testing.T) {
	g := MustNew(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := rng.Intn(g.N()), rng.Intn(g.N()), rng.Intn(g.N())
		dab, dba := g.Distance(a, b), g.Distance(b, a)
		if dab != dba {
			return false
		}
		if (a == b) != (dab == 0) {
			return false
		}
		return g.Distance(a, c) <= dab+g.Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencyInvolution(t *testing.T) {
	g := MustNew(5)
	for v := 0; v < g.N(); v++ {
		for dim := 0; dim < g.Degree(); dim++ {
			w := g.Neighbor(v, dim)
			if w == v {
				t.Fatalf("self loop at %d dim %d", v, dim)
			}
			if g.Neighbor(w, dim) != v {
				t.Fatalf("generator not involutive: %d --%d--> %d --%d--> %d",
					v, dim, w, dim, g.Neighbor(w, dim))
			}
			if g.Distance(v, w) != 1 {
				t.Fatalf("adjacent nodes at distance %d", g.Distance(v, w))
			}
		}
	}
}

func TestBipartiteColoring(t *testing.T) {
	g := MustNew(6)
	for v := 0; v < g.N(); v++ {
		for dim := 0; dim < g.Degree(); dim++ {
			if g.Color(v) == g.Color(g.Neighbor(v, dim)) {
				t.Fatalf("edge within colour class at node %d dim %d", v, dim)
			}
		}
	}
}

// TestProfitableMovesExact verifies the closed-form profitable-move
// characterisation exhaustively: a dimension is profitable iff it
// decreases distance by exactly 1, and unprofitable dimensions
// increase it by exactly 1 (the star graph is bipartite so distance
// changes by ±1 on every hop).
func TestProfitableMovesExact(t *testing.T) {
	for n := 2; n <= 6; n++ {
		g := MustNew(n)
		buf := make([]int, 0, n)
		for v := 0; v < g.N(); v++ {
			d := g.DistanceToID(v)
			buf = g.ProfitableDims(v, 0, buf[:0])
			isProf := make(map[int]bool, len(buf))
			for _, dim := range buf {
				isProf[dim] = true
			}
			for dim := 0; dim < g.Degree(); dim++ {
				dn := g.DistanceToID(g.Neighbor(v, dim))
				switch {
				case isProf[dim] && dn != d-1:
					t.Fatalf("S%d node %v dim %d claimed profitable but Δd=%d",
						n, g.Perm(v), dim, dn-d)
				case !isProf[dim] && dn != d+1:
					t.Fatalf("S%d node %v dim %d claimed unprofitable but Δd=%d",
						n, g.Perm(v), dim, dn-d)
				}
			}
		}
	}
}

// TestProfitableMovesArbitraryDst spot-checks profitability with
// non-identity destinations (exercises the relabelling path).
func TestProfitableMovesArbitraryDst(t *testing.T) {
	g := MustNew(5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v, dst := rng.Intn(g.N()), rng.Intn(g.N())
		if v == dst {
			return len(g.ProfitableDims(v, dst, nil)) == 0
		}
		d := g.Distance(v, dst)
		dims := g.ProfitableDims(v, dst, nil)
		if len(dims) == 0 {
			return false // always at least one minimal move
		}
		for _, dim := range dims {
			if g.Distance(g.Neighbor(v, dim), dst) != d-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

func TestProfitableCountFormula(t *testing.T) {
	// f = m when the front symbol is home; f = 1 + (m − L) otherwise,
	// where L is the length of the cycle through position 1.
	g := MustNew(6)
	for v := 1; v < g.N(); v++ {
		info := g.Perm(v).Cycles()
		want := info.Displaced
		if !info.FirstHome {
			want = 1 + info.Displaced - info.FirstCycleLen
		}
		if got := len(g.ProfitableDims(v, 0, nil)); got != want {
			t.Fatalf("node %v: %d profitable dims, formula says %d",
				g.Perm(v), got, want)
		}
	}
}

func TestDistanceDistributionMatchesEnumeration(t *testing.T) {
	for n := 2; n <= 7; n++ {
		g := MustNew(n)
		got := DistanceDistribution(n)
		want := make([]uint64, Diameter(n)+1)
		for v := 0; v < g.N(); v++ {
			want[g.DistanceToID(v)]++
		}
		if len(got) != len(want) {
			t.Fatalf("S%d distribution length %d, want %d", n, len(got), len(want))
		}
		for h := range want {
			if got[h] != want[h] {
				t.Fatalf("S%d N(%d) = %d, want %d", n, h, got[h], want[h])
			}
		}
	}
}

func TestDistanceDistributionSumsToFactorial(t *testing.T) {
	for n := 2; n <= 12; n++ {
		var sum uint64
		for _, c := range DistanceDistribution(n) {
			sum += c
		}
		if sum != perm.Factorial(n) {
			t.Fatalf("S%d distribution sums to %d, want %d", n, sum, perm.Factorial(n))
		}
	}
}

func TestAvgDistanceKnownValues(t *testing.T) {
	// S5: brute-force over the 120-node graph.
	g := MustNew(5)
	var sum float64
	for v := 1; v < g.N(); v++ {
		sum += float64(g.DistanceToID(v))
	}
	brute := sum / float64(g.N()-1)
	if got := g.AvgDistance(); got < brute-1e-12 || got > brute+1e-12 {
		t.Fatalf("S5 AvgDistance %v, brute force %v", got, brute)
	}
	// sanity: average distance is below the diameter and above half of it
	for n := 3; n <= 12; n++ {
		a := AvgDistanceN(n)
		if a <= float64(Diameter(n))/2 || a >= float64(Diameter(n)) {
			t.Errorf("S%d AvgDistance %v outside (H/2, H), H=%d", n, a, Diameter(n))
		}
	}
}

func TestNegativeHopBounds(t *testing.T) {
	// Along any minimal path the number of negative hops equals the
	// colour-alternation prediction; verify by walking random minimal
	// paths in S5.
	g := MustNew(5)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		src := rng.Intn(g.N())
		dst := rng.Intn(g.N())
		want := topology.RequiredNegativeHops(g.Color(src), g.Distance(src, dst))
		cur, neg := src, 0
		for cur != dst {
			dims := g.ProfitableDims(cur, dst, nil)
			next := g.Neighbor(cur, dims[rng.Intn(len(dims))])
			if g.Color(cur) == 1 && g.Color(next) == 0 {
				neg++
			}
			cur = next
		}
		if neg != want {
			t.Fatalf("src %d dst %d: %d negative hops, predicted %d",
				src, dst, neg, want)
		}
	}
}

func TestMinEscapeVCs(t *testing.T) {
	if got := topology.MinEscapeVCs(Diameter(5)); got != 4 {
		t.Fatalf("S5 MinEscapeVCs = %d, want 4", got)
	}
	if got := topology.MinEscapeVCs(Diameter(4)); got != 3 {
		t.Fatalf("S4 MinEscapeVCs = %d, want 3", got)
	}
}

func TestNewRejectsBadN(t *testing.T) {
	for _, n := range []int{0, 1, 11, -3} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
}

func TestTopologyInterfaceCompliance(t *testing.T) {
	var _ topology.Topology = MustNew(4)
}

func TestProfitableOfRelative(t *testing.T) {
	if dims := profitableOf(perm.Identity(5), nil); len(dims) != 0 {
		t.Fatalf("identity has %d profitable dims", len(dims))
	}
	q := perm.MustNew([]int{2, 1, 3, 4, 5})
	dims := profitableOf(q, nil)
	if len(dims) != 1 || dims[0] != 0 {
		t.Fatalf("swap(1,2): dims %v, want [0]", dims)
	}
}

// TestRoutingHelpersAllocationFree: the simulator calls ProfitableDims
// and Distance on every header allocation attempt and the bounds
// engine once per flow hop, so neither may allocate (the relative
// permutation is composed on the stack).
func TestRoutingHelpersAllocationFree(t *testing.T) {
	g := MustNew(6)
	buf := make([]int, 0, g.Degree())
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		i++
		buf = g.ProfitableDims(i%g.N(), (i*7919+1)%g.N(), buf[:0])
	}); a != 0 {
		t.Errorf("ProfitableDims: %v allocs per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		i++
		_ = g.Distance(i%g.N(), (i*7919+1)%g.N())
	}); a != 0 {
		t.Errorf("Distance: %v allocs per call, want 0", a)
	}
}

func BenchmarkProfitableDims(b *testing.B) {
	g := MustNew(7)
	buf := make([]int, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = g.ProfitableDims(i%g.N(), 0, buf[:0])
	}
}

func BenchmarkDistance(b *testing.B) {
	g := MustNew(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Distance(i%g.N(), (i*2654435761)%g.N())
	}
}

func BenchmarkNewS7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MustNew(7)
	}
}
