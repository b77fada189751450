// Package topology defines the abstract interconnection-network
// interface shared by the routing algorithms, the flit-level
// simulator and the analytical model. A Topology is a finite,
// node-symmetric, bipartite direct network whose nodes are indexed
// 0..N()-1 and whose links are grouped into Degree() dimensions per
// node.
package topology

// Shape is the part of a topology the analytical layers read: the
// routing spec and the latency model need only these five numbers,
// so they accept a closed-form summary (e.g. stargraph.Shape) where
// building the node tables would cost far more than the evaluation.
type Shape interface {
	// Name identifies the instance, e.g. "S5" or "Q7".
	Name() string

	// N returns the number of nodes.
	N() int

	// Degree returns the number of outgoing physical channels per
	// node (one per dimension).
	Degree() int

	// Diameter returns the maximum pairwise distance.
	Diameter() int

	// AvgDistance returns the mean distance from a fixed node to all
	// other nodes (equivalently, over ordered distinct pairs, by node
	// symmetry).
	AvgDistance() float64
}

// Topology is the contract the simulator, routing layer and model
// rely on. Implementations must be safe for concurrent read use after
// construction (all methods are pure queries).
type Topology interface {
	Shape

	// Neighbor returns the node reached from node along dimension
	// dim, 0 ≤ dim < Degree().
	Neighbor(node, dim int) int

	// Distance returns the length of a shortest path from a to b.
	Distance(a, b int) int

	// ProfitableDims appends to buf the dimensions at cur that lie on
	// some minimal path towards dst and returns the extended slice.
	// It returns buf unchanged when cur == dst. Passing a reusable
	// buffer avoids per-hop allocation in the simulator's hot loop.
	ProfitableDims(cur, dst int, buf []int) []int

	// Color returns the bipartition colour (0 or 1) of a node. Every
	// link of a bipartite network joins nodes of opposite colours;
	// negative-hop routing schemes define a hop from colour 1 to
	// colour 0 as negative.
	Color(node int) int
}

// Partial is implemented by topologies in which not every node has a
// physical channel in every dimension (meshes: edge nodes lack
// outward links). Neighbor returns -1 on a missing channel; minimal
// routing never selects one, but statistics collectors must skip
// them. Fully symmetric topologies simply do not implement Partial.
type Partial interface {
	// HasChannel reports whether node has an outgoing physical
	// channel in dimension dim.
	HasChannel(node, dim int) bool
}

// HasChannel reports whether (node, dim) is a real channel of top:
// true unless top is Partial and says otherwise.
func HasChannel(top Topology, node, dim int) bool {
	if p, ok := top.(Partial); ok {
		return p.HasChannel(node, dim)
	}
	return true
}

// RequiredNegativeHops returns the number of negative hops a message
// must still take, given the colour of the node it currently occupies
// and its remaining distance d. In a bipartite network colours
// alternate along any path, so the count is exact, not a bound: a
// message at a colour-1 node takes negative hops on its 1st, 3rd, …
// remaining hops (⌈d/2⌉ of them); at a colour-0 node on its 2nd,
// 4th, … (⌊d/2⌋).
func RequiredNegativeHops(color, d int) int {
	if color == 1 {
		return (d + 1) / 2
	}
	return d / 2
}

// MaxNegativeHops returns the worst-case negative-hop requirement over
// all source/destination pairs of a network with the given diameter:
// ⌈H/2⌉ (a colour-1 source at full diameter).
func MaxNegativeHops(diameter int) int { return (diameter + 1) / 2 }

// MinEscapeVCs returns the minimum number of negative-hop virtual
// channel levels (class-b VCs) a deadlock-free Nbc scheme needs:
// one level per possible negative-hop count, 0..MaxNegativeHops.
func MinEscapeVCs(diameter int) int { return MaxNegativeHops(diameter) + 1 }
