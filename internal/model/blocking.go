package model

import (
	"math"

	"starperf/internal/queueing"
	"starperf/internal/routing"
)

// BlockingModel selects how per-hop blocking probabilities are
// assembled from the virtual-channel occupancy distribution
// (the paper's eqs. 8–11 and the corrected variants).
type BlockingModel int

const (
	// Window (default) matches the implemented algorithm exactly:
	// eligibility does not depend on the class used on the previous
	// hop, only on the message's negative-hop level, so the per-hop
	// blocking probability is P(all eligible VCs busy)^f with the
	// eligible set given by routing.Spec.ClassBWindow at the
	// deterministic level implied by the hop position.
	Window BlockingModel = iota
	// PaperInsidePower reproduces the paper's eq. 8 literally: the
	// per-channel blocking probability is the class-weighted mixture
	// (group A and the two class-b groups), and the mixture is raised
	// to the power f.
	PaperInsidePower
	// PaperOutsidePower keeps the paper's three-group structure but
	// places the mixture outside the power: the tagged message's
	// class is a property of the message, identical across its f
	// candidate channels, so Σ_g P(g)·P_block(g)^f.
	PaperOutsidePower
)

// String names the blocking model.
func (b BlockingModel) String() string {
	switch b {
	case Window:
		return "window"
	case PaperInsidePower:
		return "paper-inside-power"
	case PaperOutsidePower:
		return "paper-outside-power"
	default:
		return "unknown"
	}
}

// blockingState carries the per-iteration quantities the hop
// evaluator needs: the all-busy probability of every eligible-set
// size under the current virtual-channel occupancy, and the class-a
// usage probability estimate. One blockingState serves every
// iteration of an evaluation; update refills it.
type blockingState struct {
	spec routing.Spec
	mode BlockingModel
	// allBusy[k] = queueing.AllBusyProb(occ, k), k = 0..V: eligible
	// counts lie in that range, so hops read the table instead of
	// recomputing the hypergeometric sum
	allBusy []float64
	pvc0    float64 // P(message used a class-a VC on its previous hop)
}

func newBlockingState(spec routing.Spec, mode BlockingModel) *blockingState {
	return &blockingState{spec: spec, mode: mode, allBusy: make([]float64, spec.V()+1)}
}

// update fills the table from occ, the P_v distribution (v = 0..V)
// of the current iterate.
func (bs *blockingState) update(occ []float64) {
	for k := range bs.allBusy {
		bs.allBusy[k] = queueing.AllBusyProb(occ, k)
	}
	if bs.spec.V1 > 0 {
		// Under the prefer-class-a policy a message acquires class a
		// whenever not all V1 adaptive VCs of the chosen channel are
		// busy.
		bs.pvc0 = 1 - bs.allBusy[bs.spec.V1]
	}
}

// eligibleCount returns the number of virtual channels a message at
// class-b level lvl may use on a hop (class a plus the class-b
// feasibility window).
func (bs *blockingState) eligibleCount(lvl int, hop Hop) int {
	st := routing.State{NegHops: hop.NegTaken, Level: lvl}
	lo, hi := bs.spec.ClassBWindow(st, hop.HopNeg, nextColor(hop), hop.D-1)
	if lo < 0 {
		lo = 0
	}
	if hi > bs.spec.V2-1 {
		hi = bs.spec.V2 - 1
	}
	w := hi - lo + 1
	if w < 0 {
		w = 0
	}
	return bs.spec.V1 + w
}

// nextColor returns the colour of the node the hop enters: negative
// hops land on colour 0, positive hops on colour 1.
func nextColor(h Hop) int {
	if h.HopNeg {
		return 0
	}
	return 1
}

// Eval returns the blocking probability of one hop: the probability
// that every one of the hop's F candidate output channels has all of
// the message's eligible virtual channels busy.
func (bs *blockingState) Eval(hop Hop) float64 {
	if hop.F <= 0 {
		return 0
	}
	switch bs.mode {
	case PaperInsidePower, PaperOutsidePower:
		// Three-group structure (paper eqs. 8–11). Group A messages
		// are treated at class-b level 0 as in the paper's eq. 9;
		// group B messages sit at the level equal to their
		// negative-hop count (the exact level under lowest-eligible
		// selection). The B−/B+ halves of eq. 8 arise from the two
		// source colours, which the solver already averages over, so
		// here the hop's own sign decides which of the two applies.
		pa := bs.allBusy[bs.eligibleCount(0, hop)]
		pb := bs.allBusy[bs.eligibleCount(hop.NegTaken, hop)]
		f := float64(hop.F)
		if bs.mode == PaperInsidePower {
			mix := bs.pvc0*pa + (1-bs.pvc0)*pb
			return math.Pow(mix, f)
		}
		return bs.pvc0*math.Pow(pa, f) + (1-bs.pvc0)*math.Pow(pb, f)
	default: // Window
		p := bs.allBusy[bs.eligibleCount(hop.NegTaken, hop)]
		return math.Pow(p, float64(hop.F))
	}
}
