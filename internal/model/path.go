package model

import (
	"fmt"
	"sync"

	"starperf/internal/cfgerr"
	"starperf/internal/hypercube"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

// Hop describes one hop of a minimal path as seen by the blocking
// model: the adaptivity degree F (number of profitable output
// channels the header may choose from), the distance D from the
// current node to the destination (so D−1 remains after the hop),
// the number of negative hops NegTaken already behind the message,
// and whether this hop itself is negative.
type Hop struct {
	F        int
	D        int
	NegTaken int
	HopNeg   bool
}

// HopEvaluator maps one hop to its blocking probability under the
// current iterate of the model (virtual-channel occupancy and
// routing spec); see blocking.go.
type HopEvaluator func(h Hop) float64

// PathStructure abstracts the minimal-path combinatorics of a
// topology for the latency model: the destination equivalence
// classes and, per class, the expected sum of per-hop blocking
// probabilities over a uniformly chosen minimal path.
type PathStructure interface {
	// Classes returns the destination classes with their distance h
	// and population; Σ count = N−1 (the identity/self class is
	// excluded). The slice is shared; callers must not modify it.
	Classes() []PathClass
	// BlockSums stores in out[idx], for every class idx, E[Σ_k
	// P_block(hop k)] for a message to class idx from a source of
	// colour c0, averaging uniformly over the class's minimal paths
	// and evaluating each hop with eval. out has len(Classes())
	// entries; BlockSums may also use it as scratch while it runs.
	BlockSums(c0 int, eval HopEvaluator, out []float64)
}

// PathClass is one destination equivalence class.
type PathClass struct {
	// H is the distance to destinations of this class.
	H int
	// Count is the number of such destinations.
	Count uint64
	// Label identifies the class (a cycle-type key for star graphs,
	// a distance for hypercubes).
	Label string
}

// negsAfter returns the number of negative hops among the first j
// hops of any minimal path leaving a colour-c0 source (exact in a
// bipartite network: colours strictly alternate).
func negsAfter(c0, j int) int { return topology.RequiredNegativeHops(c0, j) }

// hopNegAt reports whether hop number k (1-based) of a path from a
// colour-c0 source is negative: the node before hop k has colour
// c0 ⊕ (k−1 mod 2) and negative hops leave colour-1 nodes.
func hopNegAt(c0, k int) bool { return (c0+(k-1))&1 == 1 }

// pathDP is the minimal-path dynamic program StarPaths and TorusPaths
// share, flattened at construction: each state of the topology's
// transition system (a cycle type, or a torus offset vector) has a
// dense id, and ids ascend with distance, so every transition goes
// from a state to one with a smaller id. State 0 is the source, and
// every other state s is the root of exactly one destination class,
// class s−1. Per state it stores the adaptivity degree, the distance,
// the minimal-path count and the transitions as (to, weight) pairs,
// the weight being the share mult·paths(to)/paths(state) of the
// state's minimal paths that take the move. A pathDP is immutable
// after construction and safe for concurrent use.
type pathDP struct {
	classes []PathClass
	fanout  []int32 // state -> F
	dist    []int32 // state -> D
	paths   []float64
	// the transitions of state s are (trTo[i], trW[i]) for i in
	// trOff[s]..trOff[s+1]-1, in the order their terms are summed;
	// moves into the source, whose blocking sum is zero, are not kept
	trOff []int32
	trTo  []int32
	trW   []float64
}

// reserve sizes the per-state and per-class arrays for a transition
// system of n states (one of them the source).
func (dp *pathDP) reserve(n int) {
	dp.fanout = make([]int32, 0, n)
	dp.dist = make([]int32, 0, n)
	dp.paths = make([]float64, 0, n)
	dp.trOff = make([]int32, 0, n+1)
	dp.classes = make([]PathClass, 0, n-1)
}

// addState appends a state with its transitions, which must lead to
// states already added; a state without transitions is terminal (one
// minimal path, of length zero). The path count and the weights are
// summed in the given transition order.
func (dp *pathDP) addState(fanout, dist int, to []int32, mult []int) {
	if len(dp.trOff) == 0 {
		dp.trOff = append(dp.trOff, 0)
	}
	total := 1.0
	if len(to) > 0 {
		total = 0
		for i, t := range to {
			total += float64(mult[i]) * dp.paths[t]
		}
	}
	for i, t := range to {
		if t == 0 {
			continue // the source's blocking sum is zero
		}
		dp.trTo = append(dp.trTo, t)
		dp.trW = append(dp.trW, float64(mult[i])*dp.paths[t]/total)
	}
	dp.fanout = append(dp.fanout, int32(fanout))
	dp.dist = append(dp.dist, int32(dist))
	dp.paths = append(dp.paths, total)
	dp.trOff = append(dp.trOff, int32(len(dp.trTo)))
}

// Classes implements PathStructure.
func (dp *pathDP) Classes() []PathClass { return dp.classes }

// NumPaths returns the number of minimal paths to a destination of
// class idx (used by tests and by cmd/starinfo).
func (dp *pathDP) NumPaths(idx int) float64 { return dp.paths[idx+1] }

// BlockSums implements PathStructure. The expected blocking sum of a
// state is its own hop's blocking probability plus the path-weighted
// sums of its successors, and the hop index is recoverable from the
// state's distance d and the class distance h0 (k = h0 − d + 1), so a
// state's value depends on the state, h0 and c0 alone. One pass per
// h0, from the diameter down, therefore solves every state at
// distance 1..h0 (an id prefix) in ascending id, which leaves the
// states at distance h0 final; later passes stop below them, so out
// serves as the pass's scratch (out[s−1] holds state s).
func (dp *pathDP) BlockSums(c0 int, eval HopEvaluator, out []float64) {
	n := len(dp.dist)
	for h0 := int(dp.dist[n-1]); h0 >= 1; h0-- {
		for s := 1; s < n && int(dp.dist[s]) <= h0; s++ {
			d := int(dp.dist[s])
			k := h0 - d + 1
			sum := eval(Hop{
				F:        int(dp.fanout[s]),
				D:        d,
				NegTaken: negsAfter(c0, k-1),
				HopNeg:   hopNegAt(c0, k),
			})
			for i := dp.trOff[s]; i < dp.trOff[s+1]; i++ {
				sum += dp.trW[i] * out[dp.trTo[i]-1]
			}
			out[s-1] = sum
		}
	}
}

// StarPaths is the star-graph PathStructure: destination classes are
// residual-permutation cycle types, and per-class expected blocking
// sums are computed by dynamic programming over the type-transition
// graph instead of enumerating the (potentially exponential) set of
// minimal paths. Both views agree exactly; see TestDPMatchesExact.
// A StarPaths is immutable and safe for concurrent use.
type StarPaths struct{ pathDP }

// starPathsTable interns one StarPaths per n in [2,12].
var starPathsTable [11]struct {
	once sync.Once
	sp   *StarPaths
	err  error
}

// NewStarPaths returns the path structure of S_n, built on first use
// and shared by every later call for the same n. It validates the
// combinatorial type table against the closed-form distance
// distribution.
func NewStarPaths(n int) (*StarPaths, error) {
	if n < 2 || n > 12 {
		return nil, cfgerr.Errorf("model: star paths for n=%d outside [2,12]", n)
	}
	e := &starPathsTable[n-2]
	e.once.Do(func() { e.sp, e.err = buildStarPaths(n) })
	return e.sp, e.err
}

// buildStarPaths flattens the cycle-type transition graph of S_n.
// enumerateTypes orders the types by distance, the identity first,
// which is the state order pathDP needs; each type's transitions keep
// the key order of ctype.transitions.
func buildStarPaths(n int) (*StarPaths, error) {
	all := enumerateTypes(n)
	if err := checkTypeTable(n, all); err != nil {
		return nil, err
	}
	sp := &StarPaths{}
	sp.reserve(len(all))
	labels := make([]string, len(all))
	id := make(map[string]int32, len(all))
	for i, c := range all {
		labels[i] = c.t.key()
		id[labels[i]] = int32(i)
	}
	var to []int32
	var mult []int
	for _, c := range all {
		to, mult = to[:0], mult[:0]
		for _, tr := range c.t.transitions() {
			to = append(to, id[tr.to.key()])
			mult = append(mult, tr.mult)
		}
		sp.addState(c.t.fanout(), c.h, to, mult)
	}
	for i, c := range all[1:] { // all[0], the identity, is the source
		sp.classes = append(sp.classes, PathClass{H: c.h, Count: c.count, Label: labels[i+1]})
	}
	return sp, nil
}

// CubePaths is the hypercube PathStructure: a destination at Hamming
// distance h presents exactly d profitable dimensions when d hops
// remain, on every minimal path, so no averaging is needed.
type CubePaths struct {
	m       int
	classes []PathClass
}

// NewCubePaths builds the path structure of Q_m.
func NewCubePaths(m int) (*CubePaths, error) {
	if m < 1 || m > hypercube.MaxM {
		return nil, cfgerr.Errorf("model: cube paths for m=%d out of range", m)
	}
	cp := &CubePaths{m: m}
	for h := 1; h <= m; h++ {
		cp.classes = append(cp.classes, PathClass{
			H:     h,
			Count: uint64(binomF(m, h) + 0.5),
			Label: fmt.Sprintf("h=%d", h),
		})
	}
	return cp, nil
}

// Classes implements PathStructure.
func (cp *CubePaths) Classes() []PathClass { return cp.classes }

// BlockSums implements PathStructure: one forward sum per class.
func (cp *CubePaths) BlockSums(c0 int, eval HopEvaluator, out []float64) {
	for idx, c := range cp.classes {
		var sum float64
		for k := 1; k <= c.H; k++ {
			d := c.H - k + 1
			sum += eval(Hop{
				F:        d,
				D:        d,
				NegTaken: negsAfter(c0, k-1),
				HopNeg:   hopNegAt(c0, k),
			})
		}
		out[idx] = sum
	}
}

// ExactStarBlockSum enumerates every minimal path of the concrete
// star graph from src-relative permutations of class idx and averages
// Σ_k P_block over them directly. It is exponential and exists to
// validate the DP (TestDPMatchesExact) and for the ablation bench;
// use BlockSums for real evaluations.
func (sp *StarPaths) ExactStarBlockSum(g *stargraph.Graph, idx, c0 int, eval HopEvaluator) float64 {
	// pick any representative destination of the class
	rep := -1
	for v := 1; v < g.N(); v++ {
		if typeOf(g.Perm(v)).key() == sp.classes[idx].Label {
			rep = v
			break
		}
	}
	if rep < 0 {
		panic("model: class without representative")
	}
	var paths, total float64
	var dfs func(cur, k int, acc float64)
	dfs = func(cur, k int, acc float64) {
		if cur == rep {
			paths++
			total += acc
			return
		}
		dims := g.ProfitableDims(cur, rep, nil)
		d := g.Distance(cur, rep)
		hop := Hop{F: len(dims), D: d, NegTaken: negsAfter(c0, k-1), HopNeg: hopNegAt(c0, k)}
		p := eval(hop)
		for _, dim := range dims {
			dfs(g.Neighbor(cur, dim), k+1, acc+p)
		}
	}
	dfs(0, 1, 0)
	return total / paths
}
