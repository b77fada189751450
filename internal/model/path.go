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
	// BlockSum returns E[Σ_k P_block(hop k)] for a message to class
	// idx from a source of colour c0, averaging uniformly over the
	// class's minimal paths and evaluating each hop with eval.
	BlockSum(idx int, c0 int, eval HopEvaluator) float64
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
// from a state to one with a smaller id. Per state it stores the
// adaptivity degree, the distance, the minimal-path count and the
// transitions as (to, weight) pairs, the weight being the share
// mult·paths(to)/paths(state) of the state's minimal paths that take
// the move. A system of at most smallStates states also stores, per
// class, the states its minimal paths visit (at most smallStates²
// ids in all); a larger one finds them on each BlockSum call, so its
// memory stays linear in the states and transitions. A pathDP is
// immutable after construction and safe for concurrent use.
type pathDP struct {
	classes []PathClass
	root    []int32 // class -> state
	fanout  []int32 // state -> F
	dist    []int32 // state -> D
	paths   []float64
	// the transitions of state s are (trTo[i], trW[i]) for i in
	// trOff[s]..trOff[s+1]-1, in the order their terms are summed
	trOff []int32
	trTo  []int32
	trW   []float64
	// in a system of at most smallStates states, the states class c
	// visits are reach[reachOff[c]:reachOff[c+1]]
	reachOff []int32
	reach    []int32
}

// smallStates bounds the transition systems whose per-class visited
// states are stored and whose BlockSum scratch lives on the stack:
// S_12 has 195 states, the 16-ary 3-cube 165, the 64-ary 4-cube 58,905.
const smallStates = 256

// reserve sizes the per-state and per-class arrays for a transition
// system of n states (one of them the source).
func (dp *pathDP) reserve(n int) {
	dp.fanout = make([]int32, 0, n)
	dp.dist = make([]int32, 0, n)
	dp.paths = make([]float64, 0, n)
	dp.trOff = make([]int32, 0, n+1)
	dp.root = make([]int32, 0, n-1)
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
		dp.trTo = append(dp.trTo, t)
		dp.trW = append(dp.trW, float64(mult[i])*dp.paths[t]/total)
	}
	dp.fanout = append(dp.fanout, int32(fanout))
	dp.dist = append(dp.dist, int32(dist))
	dp.paths = append(dp.paths, total)
	dp.trOff = append(dp.trOff, int32(len(dp.trTo)))
}

// addClass appends a destination class rooted at state root; the
// states must all be added first.
func (dp *pathDP) addClass(c PathClass, root int32) {
	dp.root = append(dp.root, root)
	dp.classes = append(dp.classes, c)
	if len(dp.dist) <= smallStates {
		if len(dp.reachOff) == 0 {
			dp.reachOff = append(dp.reachOff, 0)
		}
		var seen [smallStates]bool
		dp.reach = dp.reachable(dp.reach, seen[:len(dp.dist)], root)
		dp.reachOff = append(dp.reachOff, int32(len(dp.reach)))
	}
}

// reachable appends to dst the non-terminal states the minimal paths
// from root visit, in ascending id, children before parents; seen is
// zeroed scratch, one flag per state. Transitions lead to smaller
// ids, so one descending pass from the root marks them all.
func (dp *pathDP) reachable(dst []int32, seen []bool, root int32) []int32 {
	seen[root] = true
	for s := root; s >= 0; s-- {
		if seen[s] {
			for _, t := range dp.trTo[dp.trOff[s]:dp.trOff[s+1]] {
				seen[t] = true
			}
		}
	}
	for s := int32(0); s <= root; s++ {
		if seen[s] && dp.dist[s] > 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// Classes implements PathStructure.
func (dp *pathDP) Classes() []PathClass { return dp.classes }

// NumPaths returns the number of minimal paths to a destination of
// class idx (used by tests and by cmd/starinfo).
func (dp *pathDP) NumPaths(idx int) float64 { return dp.paths[dp.root[idx]] }

// BlockSum implements PathStructure: the expected blocking sum of a
// state is its own hop's blocking probability plus the path-weighted
// sums of its successors, solved for each state the class's minimal
// paths visit, in ascending distance.
func (dp *pathDP) BlockSum(idx, c0 int, eval HopEvaluator) float64 {
	n := len(dp.dist)
	if n <= smallStates {
		var val [smallStates]float64
		return dp.blockSum(val[:n], dp.reach[dp.reachOff[idx]:dp.reachOff[idx+1]], idx, c0, eval)
	}
	return dp.blockSum(make([]float64, n), dp.reachable(nil, make([]bool, n), dp.root[idx]), idx, c0, eval)
}

// blockSum runs the dynamic program for class idx over its visited
// states reach in val, a zeroed per-state scratch array (terminal
// states keep value 0). For a fixed destination class the hop index k
// is recoverable from the state's distance (k = h0 − d + 1).
func (dp *pathDP) blockSum(val []float64, reach []int32, idx, c0 int, eval HopEvaluator) float64 {
	root := dp.root[idx]
	h0 := int(dp.dist[root])
	for _, s := range reach {
		d := int(dp.dist[s])
		k := h0 - d + 1
		sum := eval(Hop{
			F:        int(dp.fanout[s]),
			D:        d,
			NegTaken: negsAfter(c0, k-1),
			HopNeg:   hopNegAt(c0, k),
		})
		for i := dp.trOff[s]; i < dp.trOff[s+1]; i++ {
			sum += dp.trW[i] * val[dp.trTo[i]]
		}
		val[s] = sum
	}
	return val[root]
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
	for i, c := range all {
		if c.t.isTerminal() {
			continue // the source itself is not a destination
		}
		sp.addClass(PathClass{H: c.h, Count: c.count, Label: labels[i]}, int32(i))
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

// BlockSum implements PathStructure.
func (cp *CubePaths) BlockSum(idx, c0 int, eval HopEvaluator) float64 {
	h0 := cp.classes[idx].H
	var sum float64
	for k := 1; k <= h0; k++ {
		d := h0 - k + 1
		sum += eval(Hop{
			F:        d,
			D:        d,
			NegTaken: negsAfter(c0, k-1),
			HopNeg:   hopNegAt(c0, k),
		})
	}
	return sum
}

// ExactStarBlockSum enumerates every minimal path of the concrete
// star graph from src-relative permutations of class idx and averages
// Σ_k P_block over them directly. It is exponential and exists to
// validate the DP (TestDPMatchesExact) and for the ablation bench;
// use BlockSum for real evaluations.
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
