package model

import (
	"sort"
	"strconv"
	"strings"

	"starperf/internal/cfgerr"
	"starperf/internal/torus"
)

// TorusPaths is the k-ary n-cube PathStructure. A destination is
// characterised by the sorted vector of per-dimension minimal ring
// offsets m_i ∈ [0, k/2]; the adaptivity degree at a node is the
// number of unfinished dimensions, counting twice any dimension whose
// remaining offset is exactly k/2 (both ring directions are then
// minimal). Minimal hops decrement one offset, which induces a small
// transition system over sorted offset vectors — the same dynamic
// program as the star graph's cycle types, run by the same flat
// engine. A TorusPaths is immutable and safe for concurrent use.
type TorusPaths struct {
	pathDP
	k, n int
}

// maxTorusRadix bounds the radix of the tori NewTorusPaths accepts.
// With the node bound k^n ≤ torus.MaxNodes it caps a path structure at
// 58,905 offset vectors (the 64-ary 4-cube) and its diameter at 128,
// so building one and solving it per fixed-point iteration stay cheap;
// the node bound alone lets a 1- or 2-dimensional ring of huge radix
// through with millions of states.
const maxTorusRadix = 64

// NewTorusPaths builds the path structure of the k-ary n-cube for
// the tori torus.New accepts (k even, as required by the negative-hop
// schemes, and at most torus.MaxNodes nodes) with k ≤ maxTorusRadix.
func NewTorusPaths(k, n int) (*TorusPaths, error) {
	if _, err := torus.Nodes(k, n); err != nil {
		return nil, err
	}
	if k > maxTorusRadix {
		return nil, cfgerr.Errorf("model: torus radix k=%d exceeds %d", k, maxTorusRadix)
	}
	tp := &TorusPaths{k: k, n: n}
	// enumerate non-increasing offset vectors of length n over [0,k/2]
	type state struct {
		v     []int
		h     int
		label string
		code  uint64
	}
	half := k / 2
	states := make([]state, 0, int(binomF(half+n, n)+0.5))
	vec := make([]int, n)
	var rec func(i, maxV int)
	rec = func(i, maxV int) {
		if i == n {
			v := append([]int(nil), vec...)
			states = append(states, state{v: v, h: sum(v), label: vecKey(v), code: tp.pack(v)})
			return
		}
		for m := 0; m <= maxV; m++ {
			vec[i] = m
			rec(i+1, m)
		}
		vec[i] = 0
	}
	rec(0, half)
	// states in ascending distance (ties by label), the zero vector first
	sort.Slice(states, func(a, b int) bool {
		if states[a].h != states[b].h {
			return states[a].h < states[b].h
		}
		return states[a].label < states[b].label
	})
	id := make(map[uint64]int32, len(states))
	for s, st := range states {
		id[st.code] = int32(s)
	}
	tp.reserve(len(states))
	var to []int32
	var mult []int
	for _, st := range states {
		to, mult = to[:0], mult[:0]
		tp.eachTransition(st.v, func(ways int, child []int) {
			to = append(to, id[tp.pack(child)])
			mult = append(mult, ways)
		})
		tp.addState(tp.fanout(st.v), st.h, to, mult)
	}
	for _, st := range states[1:] { // states[0], the zero vector, is the source
		tp.classes = append(tp.classes, PathClass{H: st.h, Count: tp.countOf(st.v), Label: st.label})
	}
	return tp, nil
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// pack encodes an offset vector as an integer, one base-(k/2+1) digit
// per dimension ((k/2+1)^n ≤ k^n ≤ torus.MaxNodes).
func (tp *TorusPaths) pack(v []int) uint64 {
	var c uint64
	for _, m := range v {
		c = c*uint64(tp.k/2+1) + uint64(m)
	}
	return c
}

func vecKey(v []int) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(':')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// countOf returns the number of destinations with this sorted offset
// vector: the number of ways to assign the offsets to dimensions
// (multinomial over repeated values) times, per dimension, the number
// of ring digits realising that minimal offset (one for 0 and k/2,
// two otherwise).
func (tp *TorusPaths) countOf(v []int) uint64 {
	half := tp.k / 2
	assign := factF(tp.n)
	digits := 1.0
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		assign /= factF(j - i) // v is sorted: equal offsets are adjacent
		i = j
	}
	for _, m := range v {
		if m != 0 && m != half {
			digits *= 2
		}
	}
	return uint64(assign*digits + 0.5)
}

// fanout returns the adaptivity degree of a state: one profitable
// channel per unfinished dimension, two when the remaining offset is
// the half-ring tie.
func (tp *TorusPaths) fanout(v []int) int {
	half := tp.k / 2
	f := 0
	for _, m := range v {
		switch {
		case m == 0:
		case m == half:
			f += 2
		default:
			f++
		}
	}
	return f
}

// eachTransition visits the distinct decrement moves out of the
// non-increasing state v, in descending order of the offset value
// decremented: decrementing the last dimension holding each distinct
// non-zero value keeps the child sorted. ways counts the generator
// channels realising the move (dimensions holding the value, doubled
// at the half-ring tie). child is reused between calls of fn.
func (tp *TorusPaths) eachTransition(v []int, fn func(ways int, child []int)) {
	half := tp.k / 2
	child := make([]int, len(v))
	for i := 0; i < len(v) && v[i] > 0; {
		m, j := v[i], i
		for j < len(v) && v[j] == m {
			j++
		}
		ways := j - i
		if m == half {
			ways *= 2
		}
		copy(child, v)
		child[j-1] = m - 1
		fn(ways, child)
		i = j
	}
}
