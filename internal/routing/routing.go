// Package routing implements the family of deadlock-free fully
// adaptive wormhole routing algorithms for bipartite symmetric
// networks that the paper builds on:
//
//   - NHop — the negative-hop scheme of Boppana & Chalasani: virtual
//     channels are partitioned into levels and a message that has
//     taken l negative hops (hops from a colour-1 node to a colour-0
//     node) must occupy exactly the level-l virtual channel.
//   - Nbc — NHop augmented with bonus cards: unused level slack lets
//     a message occupy any level in a feasibility window instead of
//     exactly one, balancing virtual-channel utilisation.
//   - Enhanced-Nbc — the algorithm the paper models: V1 fully
//     adaptive class-a virtual channels usable at any time on any
//     minimal channel, plus a V2-level class-b Nbc escape subnetwork.
//
// The eligibility rules here are the single source of truth shared by
// the flit-level simulator (internal/desim) and the analytical model
// (internal/model), so the two cannot drift apart.
//
// Deadlock freedom. Class b alone is deadlock-free: a message's
// class-b level never decreases and strictly increases on negative
// hops, and within one level every waiting chain has length ≤ 1
// because two consecutive positive hops are impossible in a bipartite
// network (colours alternate). The feasibility upper bound
// level ≤ V2−1−R′ (R′ = negative hops still required) guarantees a
// message never runs out of levels. Class a adds adaptive channels
// that can always drain into class b (a Duato-style escape argument).
// The simulator's deadlock detector is used in tests to falsify
// deliberately broken variants of these rules.
package routing

import (
	"fmt"

	"starperf/internal/cfgerr"
	"starperf/internal/topology"
)

// Kind enumerates the implemented routing algorithms.
type Kind int

const (
	// NHop is the pure negative-hop scheme (class b only, no bonus
	// cards: exact level per negative-hop count).
	NHop Kind = iota
	// Nbc is negative-hop with bonus cards (class b only, level
	// window instead of exact level).
	Nbc
	// EnhancedNbc is Nbc plus V1 fully adaptive class-a virtual
	// channels — the algorithm the paper models.
	EnhancedNbc
)

// String returns the conventional algorithm name.
func (k Kind) String() string {
	switch k {
	case NHop:
		return "NHop"
	case Nbc:
		return "Nbc"
	case EnhancedNbc:
		return "Enhanced-Nbc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps an algorithm's spelling to its Kind: "nhop", "nbc",
// and "enbc" or "enhanced-nbc" for EnhancedNbc. The empty string also
// names EnhancedNbc, the algorithm the paper models, so an omitted
// routing field means the paper's scheme.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "enbc", "enhanced-nbc":
		return EnhancedNbc, nil
	case "nbc":
		return Nbc, nil
	case "nhop":
		return NHop, nil
	}
	return 0, cfgerr.Errorf("routing: unknown routing %q (want nhop, nbc or enbc)", s)
}

// Spec is a routing algorithm resolved against a topology and a
// virtual-channel budget. Virtual channels 0..V1-1 are class a
// (fully adaptive); V1..V1+V2-1 are class b (escape), with class-b
// VC index V1+l carrying level l.
type Spec struct {
	Kind Kind
	// V1 is the number of fully adaptive class-a VCs (0 except for
	// EnhancedNbc).
	V1 int
	// V2 is the number of class-b escape levels.
	V2 int
	// MaxNeg is the worst-case negative-hop requirement of the
	// topology, ⌈H/2⌉.
	MaxNeg int
}

// New resolves kind against a topology and a total VC budget V,
// validating that V covers the scheme's minimum requirement
// (V2min = ⌈H/2⌉+1 escape levels; EnhancedNbc additionally needs
// V1 ≥ 1). For NHop and Nbc all V channels are escape levels; for
// EnhancedNbc exactly V2min channels are reserved for the escape
// class — the paper's "minimum virtual channel requirement" — and the
// remaining V−V2min are class a.
func New(kind Kind, top topology.Topology, v int) (Spec, error) {
	v2min := topology.MinEscapeVCs(top.Diameter())
	s := Spec{Kind: kind, MaxNeg: topology.MaxNegativeHops(top.Diameter())}
	switch kind {
	case NHop, Nbc:
		if v < v2min {
			return Spec{}, cfgerr.Errorf("routing: %s on %s needs ≥%d VCs, got %d",
				kind, top.Name(), v2min, v)
		}
		s.V1, s.V2 = 0, v
	case EnhancedNbc:
		if v < v2min+1 {
			return Spec{}, cfgerr.Errorf("routing: %s on %s needs ≥%d VCs, got %d",
				kind, top.Name(), v2min+1, v)
		}
		s.V1, s.V2 = v-v2min, v2min
	default:
		return Spec{}, cfgerr.Errorf("routing: unknown kind %d", int(kind))
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(kind Kind, top topology.Topology, v int) Spec {
	s, err := New(kind, top, v)
	if err != nil {
		panic(err)
	}
	return s
}

// V returns the total number of virtual channels per physical channel.
func (s Spec) V() int { return s.V1 + s.V2 }

// IsClassA reports whether VC index vc is a fully adaptive class-a
// channel.
func (s Spec) IsClassA(vc int) bool { return vc < s.V1 }

// LevelOf returns the class-b level of VC index vc; panics if vc is
// class a.
func (s Spec) LevelOf(vc int) int {
	if vc < s.V1 || vc >= s.V() {
		panic(fmt.Sprintf("routing: LevelOf(%d) outside class b [%d,%d)", vc, s.V1, s.V()))
	}
	return vc - s.V1
}

// VCOfLevel returns the VC index of class-b level l.
func (s Spec) VCOfLevel(l int) int { return s.V1 + l }

// State is the per-message routing state threaded through the network.
type State struct {
	// NegHops is the number of negative hops taken so far.
	NegHops int
	// Level is the highest class-b level occupied so far (0 if the
	// message has only used class-a channels). It never decreases.
	Level int
}

// InitialState returns the state of a freshly injected message. The
// feasibility invariant Level + required ≤ V2−1 holds at injection
// because required ≤ MaxNeg = V2min−1 ≤ V2−1.
func InitialState() State { return State{} }

// ClassBWindow returns the inclusive range [lo, hi] of class-b levels
// a message in state st may occupy when taking a hop described by
// hopNeg (whether the hop is negative, i.e. leaves a colour-1 node)
// into a node of colour nextColor with dRemaining hops still to go
// after the hop. An empty window is returned as lo > hi.
//
// The lower bound enforces the deadlock-ordering invariant (levels
// never decrease; strictly increase on negative hops). For NHop the
// window collapses to the single exact level NegHops+hopNeg. The
// upper bound V2−1−R′ keeps enough headroom for the R′ negative hops
// the message must still take — the message's remaining "bonus
// cards" are exactly hi−lo.
func (s Spec) ClassBWindow(st State, hopNeg bool, nextColor, dRemaining int) (lo, hi int) {
	neg := 0
	if hopNeg {
		neg = 1
	}
	if s.Kind == NHop {
		l := st.NegHops + neg
		return l, l
	}
	lo = st.Level + neg
	hi = s.V2 - 1 - topology.RequiredNegativeHops(nextColor, dRemaining)
	return lo, hi
}

// EligibleVCs appends the VC indices a message in state st may occupy
// on a candidate next channel, and returns the extended slice.
// Class-a channels (EnhancedNbc only) are always eligible; class-b
// channels are eligible within ClassBWindow. The result is never
// empty for a live message on a minimal path: the escape window
// always contains at least one level (feasibility invariant,
// verified by TestWindowNeverEmpty).
func (s Spec) EligibleVCs(st State, hopNeg bool, nextColor, dRemaining int, buf []int) []int {
	for vc := 0; vc < s.V1; vc++ {
		buf = append(buf, vc)
	}
	lo, hi := s.ClassBWindow(st, hopNeg, nextColor, dRemaining)
	if lo < 0 {
		lo = 0
	}
	for l := lo; l <= hi && l < s.V2; l++ {
		buf = append(buf, s.VCOfLevel(l))
	}
	return buf
}

// Advance returns the message state after taking a hop on virtual
// channel vc, where hopNeg reports whether the hop was negative.
func (s Spec) Advance(st State, hopNeg bool, vc int) State {
	if hopNeg {
		st.NegHops++
	}
	if !s.IsClassA(vc) {
		st.Level = s.LevelOf(vc)
	}
	return st
}

// UnreachableError reports an injection-time routing failure: the
// destination cannot be reached from the source in the (possibly
// degraded) topology. The simulator returns it when a traffic pattern
// addresses a node stranded by a fault plan — rejecting the message
// at injection, before it can occupy channels it could never release.
type UnreachableError struct {
	// Top names the topology instance.
	Top string
	// Src and Dst are the unroutable pair.
	Src, Dst int
}

// Error formats the unreachable pair.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("routing: %s: no path from node %d to node %d", e.Top, e.Src, e.Dst)
}

// MisrouteVCs appends the VC indices a message in state st may occupy
// on a non-minimal (misroute) hop described by hopNeg/nextColor, with
// dRemaining hops still to go after the hop — for a misroute that is
// the distance from the hop's target, typically one more than before
// the hop. The simulator falls back to this when transient faults
// take down every profitable channel of the current hop.
//
// Deadlock freedom is preserved by a headroom rule: the hop is
// permitted only when the class-b feasibility window for the longer
// remaining journey is non-empty (lo ≤ V2−1−R′, with R′ the exact
// negative-hop requirement from the hop's target). Misrouting
// consumes that headroom — each detour adds distance, hence future
// negative hops, hence a tighter window — so a message can only
// detour finitely often before MisrouteVCs returns empty and the
// message must wait for a profitable channel to come back up. Waiting
// is safe: transient flaps end by construction (Down < Period), and a
// message that waits holds only channels ordered below the level it
// still has headroom to claim, so the class-b ordering argument of
// the package comment is untouched. For NHop the same rule applies to
// the exact level NegHops+neg. An empty result means "wait".
func (s Spec) MisrouteVCs(st State, hopNeg bool, nextColor, dRemaining int, buf []int) []int {
	neg := 0
	if hopNeg {
		neg = 1
	}
	lo := st.Level + neg
	if s.Kind == NHop {
		lo = st.NegHops + neg
	}
	if lo > s.V2-1-topology.RequiredNegativeHops(nextColor, dRemaining) {
		return buf
	}
	return s.EligibleVCs(st, hopNeg, nextColor, dRemaining, buf)
}

// BlockReason tags why a header's virtual-channel allocation attempt
// failed, so blocking can be attributed to the right term of the
// model: VC contention feeds the P_block·w̄ waiting term of eqs. 6 and
// 15, while fault-induced denials are outside the model entirely and
// must be separated before comparing model to simulation.
type BlockReason uint8

const (
	// BlockNone marks events that are not blocks (grants, lifecycle).
	BlockNone BlockReason = iota
	// BlockVCsBusy: at least one profitable channel was up, but every
	// eligible virtual channel on every candidate was occupied — the
	// contention the model's P_block (eqs. 6, 9–11) describes.
	BlockVCsBusy
	// BlockEjectionBusy: the message is at its destination and all V
	// ejection-channel VCs are occupied (the model treats ejection as
	// contention-free; a high count localises that approximation).
	BlockEjectionBusy
	// BlockLinkDown is a flap denial: every profitable channel's
	// physical link was transiently down and the misroute fallback had
	// no class-b headroom, so the header must wait for a link to come
	// back up. Only possible on fault-injected topologies.
	BlockLinkDown
)

// String names the block reason (stable identifiers used by the JSONL
// trace exporter).
func (r BlockReason) String() string {
	switch r {
	case BlockNone:
		return "none"
	case BlockVCsBusy:
		return "vcs-busy"
	case BlockEjectionBusy:
		return "ejection-busy"
	case BlockLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("BlockReason(%d)", uint8(r))
	}
}

// NumBlockReasons bounds the BlockReason enum for array-indexed
// per-reason counters.
const NumBlockReasons = 4

// Policy selects among free eligible virtual channels; it must match
// between the simulator and the analytical model's class-occupancy
// estimate.
type Policy int

const (
	// PreferClassA takes a random free class-a VC when one exists,
	// otherwise the lowest free eligible class-b level. This is the
	// default policy assumed by the model (adaptive first, escape as
	// fallback) and gives Enhanced-Nbc its performance edge.
	PreferClassA Policy = iota
	// RandomAny picks uniformly among all free eligible VCs.
	RandomAny
	// LowestEscapeFirst exhausts class-b levels bottom-up before
	// touching class a (an intentionally poor policy used in
	// ablation A2).
	LowestEscapeFirst
	// FirstProfitable restricts the header to the first profitable
	// output channel (deterministic minimal path, adaptivity degree
	// one) while keeping the usual VC preference on that channel. It
	// is the deterministic-routing baseline the adaptive schemes are
	// measured against.
	FirstProfitable
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PreferClassA:
		return "prefer-class-a"
	case RandomAny:
		return "random-any"
	case LowestEscapeFirst:
		return "lowest-escape-first"
	case FirstProfitable:
		return "first-profitable"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}
