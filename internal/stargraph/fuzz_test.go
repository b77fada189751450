package stargraph

import (
	"slices"
	"sync"
	"testing"

	"starperf/internal/perm"
)

// fuzzGraphs caches one Graph per n so fuzz executions do not rebuild
// the n! node tables; Graph is immutable after construction and safe
// for the fuzzer's parallel workers.
var fuzzGraphs sync.Map // int -> *Graph

func fuzzGraph(n int) *Graph {
	if g, ok := fuzzGraphs.Load(n); ok {
		return g.(*Graph)
	}
	g, _ := fuzzGraphs.LoadOrStore(n, MustNew(n))
	return g.(*Graph)
}

// bfsDistance computes the shortest-path distance between two nodes
// by breadth-first search over the adjacency tables — the oracle the
// closed-form cycle-structure formula must agree with.
func bfsDistance(g *Graph, from, to int) int {
	if from == to {
		return 0
	}
	dist := make([]int16, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int{from}
	deg := g.Degree()
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for dim := 0; dim < deg; dim++ {
			next := g.Neighbor(cur, dim)
			if dist[next] >= 0 {
				continue
			}
			dist[next] = dist[cur] + 1
			if next == to {
				return int(dist[next])
			}
			queue = append(queue, next)
		}
	}
	return -1 // unreachable: S_n is connected
}

// compose returns r = p∘q, r[i] = p[q[i]-1]: the allocating reference
// for Graph.relative.
func compose(p, q perm.Permutation) perm.Permutation {
	r := make(perm.Permutation, len(p))
	for i := range r {
		r[i] = p[q[i]-1]
	}
	return r
}

// FuzzDistance cross-checks the closed-form cycle-structure distance
// (DistanceToIdentity, the basis of the paper's eq. 2 averages)
// against a BFS oracle on arbitrary node pairs of S_2..S_6, together
// with the metric properties the routing layer relies on, and checks
// the allocation-free Distance and ProfitableDims against their
// compose-based reference.
func FuzzDistance(f *testing.F) {
	f.Add(uint8(4), uint64(0), uint64(1))
	f.Add(uint8(5), uint64(17), uint64(101))
	f.Add(uint8(6), uint64(719), uint64(0))
	f.Add(uint8(2), uint64(1), uint64(1))
	f.Add(uint8(3), uint64(5), uint64(2))
	f.Add(uint8(5), uint64(119), uint64(64))
	f.Add(uint8(6), uint64(331), uint64(502))
	f.Fuzz(func(t *testing.T, n uint8, a, b uint64) {
		nn := 2 + int(n%5) // S_2 .. S_6 (720 nodes max: BFS stays fast)
		g := fuzzGraph(nn)
		na := int(a % uint64(g.N()))
		nb := int(b % uint64(g.N()))

		closed := g.Distance(na, nb)
		oracle := bfsDistance(g, na, nb)
		if closed != oracle {
			t.Fatalf("S_%d: Distance(%d,%d) = %d, BFS says %d", nn, na, nb, closed, oracle)
		}
		if sym := g.Distance(nb, na); sym != closed {
			t.Fatalf("S_%d: asymmetric distance d(%d,%d)=%d but d(%d,%d)=%d",
				nn, na, nb, closed, nb, na, sym)
		}
		if closed < 0 || closed > g.Diameter() {
			t.Fatalf("S_%d: distance %d outside [0, diameter %d]", nn, closed, g.Diameter())
		}
		if (closed == 0) != (na == nb) {
			t.Fatalf("S_%d: zero distance for distinct nodes %d, %d", nn, na, nb)
		}
		// The stack-composed relative permutation must agree with
		// compose, for distances and profitable moves.
		var want []int
		if na != nb {
			ref := compose(g.inverses[nb], g.perms[na])
			if d := DistanceToIdentity(ref); d != closed {
				t.Fatalf("S_%d: Distance(%d,%d) = %d, compose reference %d", nn, na, nb, closed, d)
			}
			want = profitableOf(ref, nil)
		}
		dims := g.ProfitableDims(na, nb, nil)
		if !slices.Equal(dims, want) {
			t.Fatalf("S_%d: ProfitableDims(%d,%d) = %v, compose reference %v", nn, na, nb, dims, want)
		}
		if len(dims) == 0 != (na == nb) {
			t.Fatalf("S_%d: %d profitable moves from %d to %d", nn, len(dims), na, nb)
		}
		// Distance to the identity must match the precomputed table.
		if d0 := g.Distance(na, 0); d0 != g.DistanceToID(na) {
			t.Fatalf("S_%d: Distance(%d,0)=%d but DistanceToID=%d",
				nn, na, d0, g.DistanceToID(na))
		}
	})
}
