// Package mesh implements the k-ary n-dimensional mesh (no
// wraparound) — the topology of the paper's reference [17]
// (Najafabadi, Sarbazi-Azad & Rajabzadeh, MASCOTS'04). Meshes are
// bipartite (digit-sum parity; no wraparound edges to break it), so
// the negative-hop routing family applies unchanged, but they are
// *not* vertex- or edge-symmetric: border channels carry less
// traffic than central ones under uniform load, which violates the
// evenly-distributed channel-rate assumption behind the paper's
// eq. 3. The package therefore supports the simulator and routing
// layers only; the symmetric analytical model intentionally has no
// mesh path structure (TestMeshBreaksChannelSymmetry demonstrates
// why).
package mesh

import (
	"fmt"

	"starperf/internal/cfgerr"
)

// Graph is an in-memory k-ary n-mesh. Nodes are n-digit radix-k
// addresses; dimension d < n moves +1 in digit d, dimension n+d moves
// −1. Channels off the edge of the mesh do not exist: Neighbor
// returns -1 and HasChannel reports false.
type Graph struct {
	k, n    int
	nodes   int
	pow     []int
	avgDist float64
}

// New constructs a k-ary n-mesh, k ≥ 2, n ≥ 1, at most 2^26 nodes.
func New(k, n int) (*Graph, error) {
	if k < 2 {
		return nil, cfgerr.Errorf("mesh: radix k=%d must be ≥ 2", k)
	}
	if n < 1 {
		return nil, cfgerr.Errorf("mesh: dimension n=%d must be ≥ 1", n)
	}
	// pow grows with the size check, so a huge n is refused after at
	// most 26 steps instead of sizing a table by it.
	nodes := 1
	pow := []int{1}
	for i := 1; i <= n; i++ {
		if nodes > (1<<26)/k {
			return nil, cfgerr.Errorf("mesh: %d-ary %d-mesh too large", k, n)
		}
		nodes *= k
		pow = append(pow, nodes)
	}
	// mean |i−j| over ordered digit pairs (including equal) is
	// (k²−1)/(3k); distances add across dimensions.
	perDim := float64(k*k-1) / float64(3*k)
	avg := float64(n) * perDim * float64(nodes) / float64(nodes-1)
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

// Name returns "M<k>x<n>".
func (g *Graph) Name() string { return fmt.Sprintf("M%dx%d", g.k, g.n) }

// Radix returns k.
func (g *Graph) Radix() int { return g.k }

// Dims returns n.
func (g *Graph) Dims() int { return g.n }

// N returns k^n.
func (g *Graph) N() int { return g.nodes }

// Degree returns 2n dimension slots; border nodes lack some of the
// corresponding channels (see HasChannel).
func (g *Graph) Degree() int { return 2 * g.n }

func (g *Graph) digit(node, i int) int { return node / g.pow[i] % g.k }

// HasChannel implements topology.Partial.
func (g *Graph) HasChannel(node, dim int) bool {
	if dim < g.n {
		return g.digit(node, dim) < g.k-1
	}
	return g.digit(node, dim-g.n) > 0
}

// Neighbor returns the node across the channel, or -1 when the
// channel does not exist (edge of the mesh).
func (g *Graph) Neighbor(node, dim int) int {
	if !g.HasChannel(node, dim) {
		return -1
	}
	if dim < g.n {
		return node + g.pow[dim]
	}
	return node - g.pow[dim-g.n]
}

// Distance is the Manhattan distance.
func (g *Graph) Distance(a, b int) int {
	sum := 0
	for i := 0; i < g.n; i++ {
		d := g.digit(a, i) - g.digit(b, i)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// ProfitableDims appends, per dimension with a non-zero offset, the
// single channel moving towards the destination (meshes have no
// half-ring ties).
func (g *Graph) ProfitableDims(cur, dst int, buf []int) []int {
	for i := 0; i < g.n; i++ {
		dc, dd := g.digit(cur, i), g.digit(dst, i)
		switch {
		case dc < dd:
			buf = append(buf, i)
		case dc > dd:
			buf = append(buf, i+g.n)
		}
	}
	return buf
}

// Color returns the digit-sum parity; every existing link joins
// opposite parities.
func (g *Graph) Color(node int) int {
	s := 0
	for i := 0; i < g.n; i++ {
		s += g.digit(node, i)
	}
	return s & 1
}

// Diameter returns n(k−1).
func (g *Graph) Diameter() int { return g.n * (g.k - 1) }

// AvgDistance returns the exact mean distance to the other k^n − 1
// nodes.
func (g *Graph) AvgDistance() float64 { return g.avgDist }
