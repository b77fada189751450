// Package hypercube implements the binary m-cube Q_m as a
// topology.Topology, used for the star-vs-hypercube comparison the
// paper lists as future work. Nodes are the 2^m bit strings; two
// nodes are adjacent iff they differ in exactly one bit.
package hypercube

import (
	"fmt"
	"math/bits"

	"starperf/internal/cfgerr"
)

// Graph is an in-memory Q_m. All methods are pure and safe for
// concurrent use.
type Graph struct {
	m       int
	nodes   int
	avgDist float64
}

// MaxM bounds the cube dimension so node counts stay in int range and
// table-free arithmetic stays exact.
const MaxM = 30

// New constructs Q_m for 1 ≤ m ≤ MaxM.
func New(m int) (*Graph, error) {
	if m < 1 || m > MaxM {
		return nil, cfgerr.Errorf("hypercube: m=%d out of range [1,%d]", m, MaxM)
	}
	n := 1 << m
	// average distance to the 2^m −1 other nodes: Σ k·C(m,k) = m·2^(m−1)
	avg := float64(m) * float64(n/2) / float64(n-1)
	return &Graph{m: m, nodes: n, avgDist: avg}, nil
}

// MustNew is New but panics on error.
func MustNew(m int) *Graph {
	g, err := New(m)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns "Q<m>".
func (g *Graph) Name() string { return fmt.Sprintf("Q%d", g.m) }

// N returns 2^m.
func (g *Graph) N() int { return g.nodes }

// Degree returns m.
func (g *Graph) Degree() int { return g.m }

// Neighbor flips bit dim of node.
func (g *Graph) Neighbor(node, dim int) int { return node ^ (1 << dim) }

// Distance is the Hamming distance.
func (g *Graph) Distance(a, b int) int { return bits.OnesCount32(uint32(a ^ b)) }

// ProfitableDims appends the dimensions in which cur and dst differ.
func (g *Graph) ProfitableDims(cur, dst int, buf []int) []int {
	diff := uint32(cur ^ dst)
	for diff != 0 {
		dim := bits.TrailingZeros32(diff)
		buf = append(buf, dim)
		diff &= diff - 1
	}
	return buf
}

// Color returns the parity of the node's bit count; the hypercube is
// bipartite with every link joining opposite parities.
func (g *Graph) Color(node int) int { return bits.OnesCount32(uint32(node)) & 1 }

// Diameter returns m.
func (g *Graph) Diameter() int { return g.m }

// AvgDistance returns m·2^(m−1)/(2^m−1).
func (g *Graph) AvgDistance() float64 { return g.avgDist }
