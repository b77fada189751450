// Package perm implements the permutation algebra underlying the star
// interconnection network: permutation values on the symbol set
// {1, 2, …, n}, ranking and unranking in the factorial number system,
// composition, inversion, cycle-structure analysis and parity.
//
// A Permutation is stored one-based: p[i] is the symbol at position
// i+1. The identity on n symbols is 1 2 3 … n. Star-graph generators
// are exposed as SwapFirst (exchange the symbols at positions 1 and i).
package perm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Permutation is a permutation of the symbols 1..n, stored as the
// sequence of symbols by position: p[i] holds the symbol at position
// i+1. The zero-length permutation is valid and represents the empty
// permutation.
type Permutation []uint8

// MaxN is the largest supported number of symbols. 20! overflows
// uint64 ranks, so ranks are only defined for n ≤ 20; topology code
// additionally keeps node counts within int range.
const MaxN = 20

// Identity returns the identity permutation 1 2 … n.
func Identity(n int) Permutation {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("perm: Identity(%d) out of range [0,%d]", n, MaxN))
	}
	p := make(Permutation, n)
	for i := range p {
		p[i] = uint8(i + 1)
	}
	return p
}

// New validates and copies symbols into a Permutation. It returns an
// error unless symbols is a permutation of 1..len(symbols).
func New(symbols []int) (Permutation, error) {
	n := len(symbols)
	if n > MaxN {
		return nil, fmt.Errorf("perm: length %d exceeds MaxN=%d", n, MaxN)
	}
	seen := make([]bool, n+1)
	p := make(Permutation, n)
	for i, s := range symbols {
		if s < 1 || s > n {
			return nil, fmt.Errorf("perm: symbol %d out of range 1..%d", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("perm: duplicate symbol %d", s)
		}
		seen[s] = true
		p[i] = uint8(s)
	}
	return p, nil
}

// MustNew is New but panics on invalid input; for tests and literals.
func MustNew(symbols []int) Permutation {
	p, err := New(symbols)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the number of symbols.
func (p Permutation) N() int { return len(p) }

// Clone returns an independent copy of p.
func (p Permutation) Clone() Permutation {
	q := make(Permutation, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are the same permutation.
func (p Permutation) Equal(q Permutation) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the permutation as its symbol sequence, e.g. "21345".
// Symbols ≥ 10 are rendered space-separated to stay unambiguous.
func (p Permutation) String() string {
	if len(p) == 0 {
		return "ε"
	}
	if len(p) < 10 {
		var b strings.Builder
		for _, s := range p {
			b.WriteByte('0' + s)
		}
		return b.String()
	}
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = strconv.Itoa(int(s))
	}
	return strings.Join(parts, " ")
}

// Parse inverts String for the compact (n < 10) form, e.g. "21345".
func Parse(s string) (Permutation, error) {
	if s == "ε" {
		return Permutation{}, nil
	}
	syms := make([]int, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			continue
		}
		if r < '1' || r > '9' {
			return nil, fmt.Errorf("perm: bad symbol %q in %q", r, s)
		}
		syms = append(syms, int(r-'0'))
	}
	return New(syms)
}

// SwapFirst returns a copy of p with the symbols at positions 1 and i
// exchanged — the star-graph generator g_i. It panics unless
// 2 ≤ i ≤ n.
func (p Permutation) SwapFirst(i int) Permutation {
	if i < 2 || i > len(p) {
		panic(fmt.Sprintf("perm: SwapFirst(%d) out of range 2..%d", i, len(p)))
	}
	q := p.Clone()
	q[0], q[i-1] = q[i-1], q[0]
	return q
}

// SwapFirstInPlace applies the star-graph generator g_i to p itself.
func (p Permutation) SwapFirstInPlace(i int) {
	if i < 2 || i > len(p) {
		panic(fmt.Sprintf("perm: SwapFirstInPlace(%d) out of range 2..%d", i, len(p)))
	}
	p[0], p[i-1] = p[i-1], p[0]
}

// Inverse returns q with q[p[i]-1] = i+1, i.e. the inverse mapping
// from symbol to position.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for i, s := range p {
		q[s-1] = uint8(i + 1)
	}
	return q
}

// Parity returns 0 for even permutations and 1 for odd ones.
// Each star-graph generator is a transposition, so Parity is the
// bipartition colour of the node.
func (p Permutation) Parity() int {
	// Count transpositions via cycle structure: parity = (m - c) mod 2
	// summed over non-trivial cycles, i.e. n minus the number of
	// cycles (including fixed points), mod 2.
	var visited [MaxN]bool
	cycles := 0
	for i := 0; i < len(p); i++ {
		if visited[i] {
			continue
		}
		cycles++
		for j := i; !visited[j]; j = int(p[j]) - 1 {
			visited[j] = true
		}
	}
	return (len(p) - cycles) % 2
}

// CycleInfo summarises the cycle structure of a permutation relative
// to the identity, in the form used by star-graph distance and
// routing computations.
type CycleInfo struct {
	// Displaced is the number of positions i with p[i] != i (symbols
	// out of place), counting position 1.
	Displaced int
	// Cycles is the number of non-trivial cycles (length ≥ 2).
	Cycles int
	// FirstHome reports whether position 1 holds symbol 1.
	FirstHome bool
	// FirstCycleLen is the length of the cycle containing position 1,
	// or 0 when FirstHome.
	FirstCycleLen int
}

// Cycles computes the permutation's CycleInfo.
func (p Permutation) Cycles() CycleInfo {
	var info CycleInfo
	info.FirstHome = len(p) == 0 || p[0] == 1
	var visited [MaxN]bool
	for i := 0; i < len(p); i++ {
		if visited[i] || int(p[i]) == i+1 {
			visited[i] = true
			continue
		}
		// walk the cycle through i
		length := 0
		first := false
		for j := i; !visited[j]; j = int(p[j]) - 1 {
			visited[j] = true
			length++
			if j == 0 {
				first = true
			}
		}
		info.Cycles++
		info.Displaced += length
		if first {
			info.FirstCycleLen = length
		}
	}
	return info
}

// CycleType returns the multiset of non-trivial cycle lengths sorted
// descending, with the cycle containing position 1 (if any) reported
// separately. It is the canonical state used by the model's
// cycle-type dynamic program.
type CycleType struct {
	// FirstLen is the length of the cycle through position 1, or 0 if
	// position 1 is a fixed point.
	FirstLen int
	// Others holds the lengths of the remaining non-trivial cycles in
	// descending order.
	Others []int
}

// Key returns a compact canonical string for use as a map key.
func (t CycleType) Key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(t.FirstLen))
	for _, l := range t.Others {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(l))
	}
	return b.String()
}

// Type computes the CycleType of p.
func (p Permutation) Type() CycleType {
	var t CycleType
	var visited [MaxN]bool
	for i := 0; i < len(p); i++ {
		if visited[i] || int(p[i]) == i+1 {
			visited[i] = true
			continue
		}
		length := 0
		first := false
		for j := i; !visited[j]; j = int(p[j]) - 1 {
			visited[j] = true
			length++
			if j == 0 {
				first = true
			}
		}
		if first {
			t.FirstLen = length
		} else {
			t.Others = append(t.Others, length)
		}
	}
	// insertion sort descending; cycle counts are tiny
	for i := 1; i < len(t.Others); i++ {
		for j := i; j > 0 && t.Others[j] > t.Others[j-1]; j-- {
			t.Others[j], t.Others[j-1] = t.Others[j-1], t.Others[j]
		}
	}
	return t
}

// ErrRankRange reports a rank outside [0, n!).
var ErrRankRange = errors.New("perm: rank out of range")

// Factorial returns n! as uint64; panics for n > 20.
func Factorial(n int) uint64 {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("perm: Factorial(%d) out of range", n))
	}
	f := uint64(1)
	for i := 2; i <= n; i++ {
		f *= uint64(i)
	}
	return f
}

// Rank returns the lexicographic rank of p in [0, n!), using the
// factorial number system. The identity has rank 0.
func (p Permutation) Rank() uint64 {
	n := len(p)
	var rank uint64
	fact := Factorial(n)
	var used [MaxN + 1]bool
	for i := 0; i < n; i++ {
		fact /= uint64(n - i)
		smaller := 0
		for s := 1; s < int(p[i]); s++ {
			if !used[s] {
				smaller++
			}
		}
		rank += uint64(smaller) * fact
		used[p[i]] = true
	}
	return rank
}

// Unrank returns the permutation of n symbols with lexicographic rank
// r; it is the inverse of Rank.
func Unrank(n int, r uint64) (Permutation, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("perm: Unrank n=%d out of range", n)
	}
	if r >= Factorial(n) {
		return nil, ErrRankRange
	}
	p := make(Permutation, n)
	var used [MaxN + 1]bool
	fact := Factorial(n)
	for i := 0; i < n; i++ {
		fact /= uint64(n - i)
		k := int(r / fact)
		r %= fact
		for s := 1; s <= n; s++ {
			if used[s] {
				continue
			}
			if k == 0 {
				p[i] = uint8(s)
				used[s] = true
				break
			}
			k--
		}
	}
	return p, nil
}

// ForEach enumerates all n! permutations of n symbols in lexicographic
// order, invoking fn with a reused buffer (clone it to retain). It
// stops early if fn returns false.
func ForEach(n int, fn func(Permutation) bool) {
	p := Identity(n)
	for {
		if !fn(p) {
			return
		}
		if !nextLex(p) {
			return
		}
	}
}

// nextLex advances p to the next lexicographic permutation in place,
// returning false when p was the last one.
func nextLex(p Permutation) bool {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}
