// Package torus implements the k-ary n-cube (torus) interconnection
// network — the reference topology of the wormhole-modelling
// literature the paper builds on (Agarwal 91; Sarbazi-Azad,
// Ould-Khaoua & Mackenzie 01). Nodes are n-digit radix-k addresses;
// each dimension carries two unidirectional channels (one per
// direction) with wraparound.
//
// The radix k must be even: the negative-hop routing family used
// throughout this repository requires a bipartite network, and a
// cycle of odd length is not two-colourable. With k even the digit
// sum modulo 2 is a proper colouring (a ±1 move flips it, including
// across the wraparound from k−1 to 0).
package torus

import (
	"fmt"

	"starperf/internal/cfgerr"
)

// Graph is an in-memory k-ary n-cube. All methods are pure and safe
// for concurrent use after construction.
type Graph struct {
	k, n    int
	nodes   int
	pow     []int // pow[i] = k^i
	avgDist float64
}

// MaxNodes bounds the tori New builds. The analytical model's torus
// path structures accept only these tori, and bound the radix too.
const MaxNodes = 1 << 26

// Nodes returns the node count k^n of the k-ary n-cube, or an error
// unless k is even, k ≥ 2, n ≥ 1 and k^n ≤ MaxNodes: the tori New
// accepts.
func Nodes(k, n int) (int, error) {
	if k < 2 || k%2 != 0 {
		return 0, cfgerr.Errorf("torus: radix k=%d must be even and ≥ 2 (bipartiteness)", k)
	}
	if n < 1 {
		return 0, cfgerr.Errorf("torus: dimension n=%d must be ≥ 1", n)
	}
	nodes := 1
	for i := 0; i < n; i++ {
		if nodes > MaxNodes/k {
			return 0, cfgerr.Errorf("torus: %d-ary %d-cube too large", k, n)
		}
		nodes *= k
	}
	return nodes, nil
}

// New constructs a k-ary n-cube with k even, k ≥ 2, n ≥ 1, and at
// most MaxNodes nodes.
func New(k, n int) (*Graph, error) {
	nodes, err := Nodes(k, n)
	if err != nil {
		return nil, err
	}
	pow := make([]int, n+1)
	pow[0] = 1
	for i := 1; i <= n; i++ {
		pow[i] = pow[i-1] * k
	}
	// Mean minimal offset of one dimension over all k digit offsets:
	// Σ_o min(o, k−o) = k²/4 for even k, so the per-dimension mean is
	// k/4; over all destinations including self the mean distance is
	// n·k/4, rescaled to exclude the self destination.
	avg := float64(n) * float64(k) / 4 * float64(nodes) / float64(nodes-1)
	return &Graph{k: k, n: n, nodes: nodes, pow: pow, avgDist: avg}, nil
}

// MustNew is New but panics on error.
func MustNew(k, n int) *Graph {
	g, err := New(k, n)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns "T<k>x<n>" (k-ary n-cube).
func (g *Graph) Name() string { return fmt.Sprintf("T%dx%d", g.k, g.n) }

// Radix returns k.
func (g *Graph) Radix() int { return g.k }

// Dims returns n.
func (g *Graph) Dims() int { return g.n }

// N returns k^n.
func (g *Graph) N() int { return g.nodes }

// Degree returns 2n: each dimension has a + and a − unidirectional
// output channel. Dimension index d < n moves +1 in digit d;
// d ∈ [n, 2n) moves −1 in digit d−n.
func (g *Graph) Degree() int { return 2 * g.n }

// digit returns digit i of node.
func (g *Graph) digit(node, i int) int { return node / g.pow[i] % g.k }

// Neighbor implements topology.Topology.
func (g *Graph) Neighbor(node, dim int) int {
	i, delta := dim, 1
	if dim >= g.n {
		i, delta = dim-g.n, g.k-1 // −1 mod k
	}
	d := g.digit(node, i)
	return node + ((d+delta)%g.k-d)*g.pow[i]
}

// offset returns the digit-wise offset (dst − src mod k) in dimension
// i.
func (g *Graph) offset(src, dst, i int) int {
	return ((g.digit(dst, i)-g.digit(src, i))%g.k + g.k) % g.k
}

// Distance is the sum over dimensions of the minimal ring distance.
func (g *Graph) Distance(a, b int) int {
	sum := 0
	for i := 0; i < g.n; i++ {
		o := g.offset(a, b, i)
		if o > g.k-o {
			o = g.k - o
		}
		sum += o
	}
	return sum
}

// ProfitableDims appends the output channels on minimal paths from
// cur to dst: per dimension, the shorter ring direction — or both
// when the offset is exactly k/2.
func (g *Graph) ProfitableDims(cur, dst int, buf []int) []int {
	for i := 0; i < g.n; i++ {
		o := g.offset(cur, dst, i)
		if o == 0 {
			continue
		}
		switch {
		case o < g.k-o:
			buf = append(buf, i)
		case o > g.k-o:
			buf = append(buf, i+g.n)
		default: // o == k/2: both directions minimal
			buf = append(buf, i, i+g.n)
		}
	}
	return buf
}

// Color returns the digit-sum parity (a proper 2-colouring for even
// k).
func (g *Graph) Color(node int) int {
	s := 0
	for i := 0; i < g.n; i++ {
		s += g.digit(node, i)
	}
	return s & 1
}

// Diameter returns n·k/2.
func (g *Graph) Diameter() int { return g.n * g.k / 2 }

// AvgDistance returns the exact mean distance to the other k^n − 1
// nodes.
func (g *Graph) AvgDistance() float64 { return g.avgDist }
