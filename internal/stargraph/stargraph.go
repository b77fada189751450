// Package stargraph implements the n-star interconnection network
// S_n: the Cayley graph of the symmetric group on {1..n} generated by
// the transpositions g_i that exchange the symbols at positions 1 and
// i (2 ≤ i ≤ n). S_n has n! nodes of degree n−1 and diameter
// ⌊3(n−1)/2⌋ (Akers, Harel & Krishnamurthy 1987).
//
// Nodes are addressed by the lexicographic rank of their permutation
// (the identity is node 0). The package provides exact closed-form
// distances from the cycle structure, the exact distance distribution
// and average distance for arbitrary n (computed combinatorially, not
// by enumeration), the profitable-move sets used by minimal adaptive
// routing, and the bipartition colouring used by negative-hop
// deadlock-avoidance schemes.
package stargraph

import (
	"fmt"

	"starperf/internal/cfgerr"
	"starperf/internal/perm"
)

// MaxEnumerableN bounds the sizes for which the package will allocate
// full per-node tables (n! permutations). 10! = 3,628,800 nodes is
// comfortably in-memory; beyond that construct-time enumeration is no
// longer sensible and callers should use the combinatorial functions
// (DistanceDistribution, AvgDistanceN) directly.
const MaxEnumerableN = 10

// Shape is the closed-form summary of S_n that the routing spec and
// the analytical model read (a topology.Shape): its name, degree,
// diameter and exact mean distance, without the n! node tables New
// builds. A Graph embeds its Shape, so both report the same bits.
type Shape struct {
	n        int
	diameter int
	avgDist  float64
}

// NewShape returns the shape of S_n for the sizes New accepts, n in
// [2, MaxEnumerableN], so a model evaluation and a simulation accept
// the same networks.
func NewShape(n int) (Shape, error) {
	if n < 2 || n > MaxEnumerableN {
		return Shape{}, cfgerr.Errorf("stargraph: n=%d out of supported range [2,%d]", n, MaxEnumerableN)
	}
	return Shape{n: n, diameter: Diameter(n), avgDist: AvgDistanceN(n)}, nil
}

// Name returns "S<n>".
func (s Shape) Name() string { return fmt.Sprintf("S%d", s.n) }

// Degree returns n−1, the number of dimensions.
func (s Shape) Degree() int { return s.n - 1 }

// Diameter returns ⌊3(n−1)/2⌋.
func (s Shape) Diameter() int { return s.diameter }

// AvgDistance returns the exact mean distance from a node to the
// other n!−1 nodes (paper eq. 2, computed exactly).
func (s Shape) AvgDistance() float64 { return s.avgDist }

// Graph is an in-memory S_n instance with precomputed node tables.
// All methods are pure after construction and safe for concurrent use.
type Graph struct {
	Shape
	nodes    int
	perms    []perm.Permutation // node -> permutation (rank order)
	inverses []perm.Permutation // node -> inverse permutation
	adj      []int32            // node*(n-1)+dim -> neighbour node
	color    []uint8            // node -> parity
	distID   []uint8            // node -> distance to identity
	distDist []uint64           // distance histogram from a fixed node
}

// New constructs S_n. It precomputes adjacency, colours and distances
// for all n! nodes; n must be in [2, MaxEnumerableN].
func New(n int) (*Graph, error) {
	shape, err := NewShape(n)
	if err != nil {
		return nil, err
	}
	nodes := int(perm.Factorial(n))
	g := &Graph{
		Shape:    shape,
		nodes:    nodes,
		perms:    make([]perm.Permutation, nodes),
		inverses: make([]perm.Permutation, nodes),
		adj:      make([]int32, nodes*(n-1)),
		color:    make([]uint8, nodes),
		distID:   make([]uint8, nodes),
	}
	idx := 0
	perm.ForEach(n, func(p perm.Permutation) bool {
		q := p.Clone()
		g.perms[idx] = q
		g.inverses[idx] = q.Inverse()
		g.color[idx] = uint8(q.Parity())
		g.distID[idx] = uint8(DistanceToIdentity(q))
		idx++
		return true
	})
	for node := 0; node < nodes; node++ {
		p := g.perms[node]
		for dim := 0; dim < n-1; dim++ {
			g.adj[node*(n-1)+dim] = int32(p.SwapFirst(dim + 2).Rank())
		}
	}
	g.distDist = DistanceDistribution(n)
	return g, nil
}

// MustNew is New but panics on error.
func MustNew(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

// Symbols returns n, the number of symbols (so nodes = n!).
func (g *Graph) Symbols() int { return g.n }

// N returns the number of nodes, n!.
func (g *Graph) N() int { return g.nodes }

// Neighbor returns the node reached from node via dimension dim
// (0-based; dimension dim corresponds to generator g_{dim+2}).
func (g *Graph) Neighbor(node, dim int) int {
	return int(g.adj[node*(g.n-1)+dim])
}

// Perm returns the permutation labelling a node. The returned slice
// is shared; callers must not modify it.
func (g *Graph) Perm(node int) perm.Permutation { return g.perms[node] }

// NodeOf returns the node index of a permutation.
func (g *Graph) NodeOf(p perm.Permutation) int { return int(p.Rank()) }

// Color returns the bipartition colour of a node: the parity of its
// permutation (0 = even, 1 = odd). Every generator is a transposition,
// so every link joins opposite colours.
func (g *Graph) Color(node int) int { return int(g.color[node]) }

// Distance returns the shortest-path distance between two nodes,
// using the closed-form cycle-structure formula on the relative
// permutation dst⁻¹∘src.
func (g *Graph) Distance(a, b int) int {
	if a == b {
		return 0
	}
	if b == 0 {
		return int(g.distID[a])
	}
	var rel [perm.MaxN]uint8
	return DistanceToIdentity(g.relative(&rel, b, a))
}

// relative returns the relative permutation dst⁻¹∘cur, composed into
// the caller's array: the allocation-free form of
// g.inverses[dst].Compose(g.perms[cur]) for the per-hop routing calls.
func (g *Graph) relative(rel *[perm.MaxN]uint8, dst, cur int) perm.Permutation {
	inv, p := g.inverses[dst], g.perms[cur]
	q := perm.Permutation(rel[:g.n])
	for i, s := range p {
		q[i] = inv[s-1]
	}
	return q
}

// DistanceToID returns the precomputed distance from a node to the
// identity node 0.
func (g *Graph) DistanceToID(node int) int { return int(g.distID[node]) }

// DistanceHistogram returns the number of nodes at each distance
// 0..Diameter() from a fixed node. The returned slice is shared.
func (g *Graph) DistanceHistogram() []uint64 { return g.distDist }

// ProfitableDims appends the dimensions at cur that lie on a minimal
// path to dst, and returns the extended slice.
//
// Routing the relative permutation q = dst⁻¹∘cur to the identity, the
// profitable generators are (Akers & Krishnamurthy; proved by case
// analysis on the distance formula, verified exhaustively in tests):
//
//   - q(1) = 1: every g_i with position i displaced;
//   - q(1) = x ≠ 1: g_x (sends the front symbol home) and every g_i
//     with position i in a non-trivial cycle other than the cycle
//     through position 1.
func (g *Graph) ProfitableDims(cur, dst int, buf []int) []int {
	if cur == dst {
		return buf
	}
	var rel [perm.MaxN]uint8
	return profitableOf(g.relative(&rel, dst, cur), buf)
}

// profitableOf computes profitable generator dimensions (0-based dim =
// position − 2) for routing q to the identity.
func profitableOf(q perm.Permutation, buf []int) []int {
	n := len(q)
	if q[0] == 1 {
		for i := 2; i <= n; i++ {
			if int(q[i-1]) != i {
				buf = append(buf, i-2)
			}
		}
		return buf
	}
	// mark the cycle through position 1
	var inFirst [perm.MaxN + 1]bool
	j := 0
	for !inFirst[j+1] {
		inFirst[j+1] = true
		j = int(q[j]) - 1
	}
	x := int(q[0])
	buf = append(buf, x-2) // g_x: send front symbol home
	for i := 2; i <= n; i++ {
		if int(q[i-1]) != i && !inFirst[i] {
			buf = append(buf, i-2)
		}
	}
	return buf
}

// ProfitableOfRelative exposes profitableOf for callers that already
// hold a relative permutation (the analytical model's path
// enumerators). Dimensions are 0-based.
func ProfitableOfRelative(q perm.Permutation, buf []int) []int {
	if q.IsIdentity() {
		return buf
	}
	return profitableOf(q, buf)
}

// DistanceToIdentity returns the star-graph distance from the node
// labelled by permutation q to the identity:
//
//	d(q) = m + c        if q(1) = 1,
//	d(q) = m + c − 2    otherwise,
//
// where m is the number of displaced symbols and c the number of
// non-trivial cycles.
func DistanceToIdentity(q perm.Permutation) int {
	info := q.Cycles()
	if info.Displaced == 0 {
		return 0
	}
	if info.FirstHome {
		return info.Displaced + info.Cycles
	}
	return info.Displaced + info.Cycles - 2
}

// Diameter returns ⌊3(n−1)/2⌋, the diameter of S_n.
func Diameter(n int) int { return 3 * (n - 1) / 2 }

// binom returns C(n,k) as uint64 (exact for the ranges used here).
func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := uint64(1)
	for i := 1; i <= k; i++ {
		r = r * uint64(n-k+i) / uint64(i)
	}
	return r
}

// derangementCycleCounts returns d[m][c] = the number of permutations
// of m elements with no fixed points and exactly c cycles (associated
// Stirling numbers of the first kind), for 0 ≤ m ≤ maxM. Recurrence:
// d(m,c) = (m−1)·(d(m−1,c) + d(m−2,c−1)).
func derangementCycleCounts(maxM int) [][]uint64 {
	d := make([][]uint64, maxM+1)
	for m := range d {
		d[m] = make([]uint64, m/2+1)
	}
	d[0][0] = 1
	for m := 1; m <= maxM; m++ {
		for c := 1; c <= m/2; c++ {
			var v, w uint64
			if c < len(d[m-1]) {
				v = d[m-1][c]
			}
			if m >= 2 && c-1 < len(d[m-2]) {
				w = d[m-2][c-1]
			}
			d[m][c] = uint64(m-1) * (v + w)
		}
	}
	return d
}

// DistanceDistribution returns N[h] = the number of permutations at
// star-graph distance h from the identity, for h = 0..Diameter(n),
// computed combinatorially (no enumeration): a permutation with m
// displaced symbols and c non-trivial cycles sits at distance m+c if
// position 1 is fixed and m+c−2 otherwise. Σ N[h] = n!.
func DistanceDistribution(n int) []uint64 {
	if n < 1 || n > perm.MaxN {
		panic(fmt.Sprintf("stargraph: DistanceDistribution(%d) out of range", n))
	}
	dist := make([]uint64, Diameter(n)+1)
	d2 := derangementCycleCounts(n)
	dist[0] = 1 // identity
	for m := 2; m <= n; m++ {
		for c := 1; c <= m/2; c++ {
			// position 1 fixed: choose the m displaced among the other n−1
			fixedFirst := binom(n-1, m) * d2[m][c]
			if fixedFirst > 0 {
				dist[m+c] += fixedFirst
			}
			// position 1 displaced: all placements minus fixed-first ones
			moved := binom(n, m)*d2[m][c] - fixedFirst
			if moved > 0 {
				dist[m+c-2] += moved
			}
		}
	}
	return dist
}

// AvgDistanceN returns the exact average distance from a node of S_n
// to the other n!−1 nodes (the quantity the paper's eq. 2
// approximates).
func AvgDistanceN(n int) float64 {
	dist := DistanceDistribution(n)
	var sum float64
	for h, cnt := range dist {
		sum += float64(h) * float64(cnt)
	}
	return sum / float64(perm.Factorial(n)-1)
}
