// Package bounds computes deterministic worst-case end-to-end delay
// bounds for adaptive wormhole routing — the network-calculus
// complement to the paper's mean-latency model (see internal/model).
// Where the model answers "what latency will a message see on
// average", this engine answers "what latency will a flow never
// exceed", the guarantee production users ask of a serving system.
//
// The construction follows the classic wormhole network-calculus
// programme (Farhi & Gaujal's performance bounds for wormhole
// routing; Giroudot & Mifdaoui's buffer-aware analysis):
//
//   - every (src,dst) flow is a token bucket α(t) = σ_f + ρ_f·t with
//     burst σ_f = M flits (one message arrives back-to-back at link
//     rate) and sustained rate ρ_f = λ_f·M flits/cycle;
//   - per-channel loads come from the same minimal-path enumeration
//     the adaptive routing layer uses: each flow's unit mass splits
//     equally over the profitable dimensions at every node (the fluid
//     limit of adaptive selection), giving exact per-channel rates on
//     asymmetric (faulted, mesh) topologies, not a symmetric average;
//   - each directed channel is a rate-latency server β(t) =
//     R·(t−T)⁺ under blind multiplexing: residual rate R = C − ρ_ch
//     (C = link bandwidth in flits/cycle, ρ_ch the aggregate flit
//     rate) and latency T = (σ_ch + B)/R, where B = 2·V·BufCap is the
//     wormhole back-pressure allowance (flits parked in the channel's
//     V virtual channels' input+output buffers) and σ_ch the
//     aggregate burst of the traffic entering the channel;
//   - σ_ch grows with upstream delay (a flow delayed by D exits with
//     burst σ + ρ·D). The channel dependency graph from the load
//     enumeration decides how that recursion is solved: feedforward
//     (acyclic) graphs get an exact single pass in topological order;
//     cyclic graphs get a monotone fixed point in which the upstream
//     delay of traffic entering a channel at hop position k is
//     bounded by (k−1) worst predecessor hop delays — flow paths are
//     loop-free even when the channel graph is not, which is what
//     keeps the recursion well-founded. A fixed point that fails to
//     stabilise within maxIter iterations means the burstiness
//     amplification loop diverges at this load: the engine returns
//     ErrUnboundable instead of a bogus number;
//   - the end-to-end bound for an h-hop flow composes the per-hop
//     servers paying the flow's own burst only once:
//     Bound(h) = M/C + h·T_max + M/R_min + h/C.
//
// Everything is closed-form floating point over deterministic
// iteration orders: two evaluations of the same Config are
// bit-identical, so bounds are content-hashable and cacheable like
// every other starperfd job.
//
// The bounds hold under the token-bucket arrival assumption. The
// simulator's default Poisson sources are not strictly token-bucket
// bounded — the validation harness (validate_test.go) therefore
// checks the engineering claim that matters: across the topology ×
// load × fault-plan matrix, simulated p99.9 and maximum latencies
// stay below the bound with wide margin at every operating point the
// engine calls boundable.
package bounds

import (
	"errors"
	"fmt"
	"math"

	"starperf/internal/cfgerr"
	"starperf/internal/floats"
	"starperf/internal/routing"
	"starperf/internal/topology"
)

// ErrUnboundable is returned when no finite worst-case delay bound
// exists at the requested operating point: the injection or some
// channel is saturated (utilization ≥ 1), or the cyclic burstiness
// fixed point diverges. It is the bounds engine's counterpart of the
// model's ErrSaturated — and strictly more conservative: the engine's
// capacity condition (per-channel ρ·h < C along the deepest hop
// position) binds before the model's ρ < C does.
var ErrUnboundable = errors.New("bounds: no finite worst-case delay bound at this operating point")

// MaxNodes caps the analysis size: the load enumeration is quadratic
// in nodes, so unboundedly large topologies would turn a sync request
// into a marathon.
const MaxNodes = 1024

// maxHopDelay is the divergence tripwire of the cyclic fixed point: a
// per-hop delay bound beyond 10^15 cycles is not a bound anyone can
// use, and iterating past it only overflows the floats.
const maxHopDelay = 1e15

// The cyclic burstiness fixed point's iteration cap and relative
// convergence tolerance.
const (
	maxIter = 256
	tol     = 1e-9
)

// Config parameterises one bounds evaluation.
type Config struct {
	// Top is the network topology (pristine or faulted).
	Top topology.Topology
	// Kind is the adaptive routing algorithm; its virtual-channel
	// feasibility rules are validated exactly as for the simulator.
	Kind routing.Kind
	// V is the number of virtual channels per physical channel.
	V int
	// MsgLen is the message length M in flits.
	MsgLen int
	// Rate is the per-node message generation rate λg in
	// messages/node/cycle.
	Rate float64
	// BufCap is the per-virtual-channel buffer depth in flits
	// (default 2, the simulator's).
	BufCap int
	// LinkBW is the physical channel bandwidth in flits/cycle
	// (default 1, the unit the whole repo works in).
	LinkBW float64
}

func (c Config) withDefaults() Config {
	if c.BufCap == 0 {
		c.BufCap = 2
	}
	// Zero-tolerance EqualWithin is an exact is-unset test: a negative
	// value must survive into validate and be rejected there.
	if floats.EqualWithin(c.LinkBW, 0, 0) {
		c.LinkBW = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Top == nil {
		return cfgerr.New("bounds: nil topology")
	}
	if n := c.Top.N(); n > MaxNodes {
		return cfgerr.Errorf("bounds: topology %s has %d nodes, the engine analyses at most %d (quadratic path enumeration)", c.Top.Name(), n, MaxNodes)
	}
	if c.MsgLen <= 0 {
		return cfgerr.Errorf("bounds: message length %d, want ≥ 1 flit", c.MsgLen)
	}
	if c.Rate <= 0 {
		return cfgerr.Errorf("bounds: rate %v, want > 0 messages/node/cycle", c.Rate)
	}
	if c.BufCap < 1 {
		return cfgerr.Errorf("bounds: buffer depth %d, want ≥ 1 flit", c.BufCap)
	}
	if c.LinkBW <= 0 {
		return cfgerr.Errorf("bounds: link bandwidth %v, want > 0 flits/cycle", c.LinkBW)
	}
	if _, err := routing.New(c.Kind, c.Top, c.V); err != nil {
		return err
	}
	return nil
}

// FlowBound is the worst-case end-to-end delay bound for the class of
// flows at a given hop count.
type FlowBound struct {
	// Hops is the class's path length.
	Hops int
	// Flows counts the live ordered (src,dst) pairs in the class.
	Flows int
	// Bound is the end-to-end delay bound in cycles (generation →
	// last flit delivered), for any flow of the class.
	Bound float64
}

// Result carries one bounds evaluation.
type Result struct {
	// WorstCase is the network-wide worst-flow bound in cycles — the
	// deepest class's bound.
	WorstCase float64
	// Classes are the per-hop-count bounds, ascending in Hops.
	Classes []FlowBound
	// Utilization is the highest per-channel flit utilization ρ/C.
	Utilization float64
	// HopDelay is the worst per-channel delay bound T in cycles.
	HopDelay float64
	// Residual is the smallest residual service rate C−ρ over
	// traffic-carrying channels, in flits/cycle.
	Residual float64
	// Feedforward reports whether the channel dependency graph is
	// acyclic (exact single-pass composition) or cyclic (monotone
	// fixed point).
	Feedforward bool
	// Iterations is the number of fixed-point sweeps used (1 for a
	// feedforward graph).
	Iterations int
	// Flows counts live ordered (src,dst) pairs; Channels the
	// directed channels carrying traffic.
	Flows    int
	Channels int
}

// Evaluate computes per-class and worst-flow delay bounds for cfg.
// Invalid configurations match cfgerr.ErrInvalid; operating points
// with no finite bound match ErrUnboundable.
func Evaluate(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bw := cfg.LinkBW
	m := float64(cfg.MsgLen)
	if cfg.Rate*m >= bw {
		return nil, fmt.Errorf("%w: injection load %.6g flits/cycle ≥ link bandwidth %.6g (rate %.6g × %d-flit messages)",
			ErrUnboundable, cfg.Rate*m, bw, cfg.Rate, cfg.MsgLen)
	}
	cl := enumerateLoad(cfg.Top, cfg.Rate)
	if cl.flows == 0 {
		return nil, cfgerr.Errorf("bounds: %s has no live source/destination pairs", cfg.Top.Name())
	}
	act := cl.active()
	maxUtil := 0.0
	for _, ch := range act {
		rho := cl.rate[ch] * m
		if rho >= bw {
			return nil, fmt.Errorf("%w: channel %d/%d saturated: aggregate %.6g flits/cycle ≥ bandwidth %.6g",
				ErrUnboundable, ch/cl.deg, ch%cl.deg, rho, bw)
		}
		if u := rho / bw; u > maxUtil {
			maxUtil = u
		}
	}
	ff := feedforward(cfg.Top, cl, act)
	cv := curveParams{
		msgLen:  m,
		bw:      bw,
		backlog: float64(2 * cfg.V * cfg.BufCap),
		src:     m / bw,
	}
	hopT := make([]float64, len(cl.rate))
	var iters int
	if ff {
		iters = 1
		composeFeedforward(cfg.Top, cl, act, cv, hopT)
	} else {
		var err error
		iters, err = composeCyclic(cfg.Top, cl, act, cv, hopT)
		if err != nil {
			return nil, err
		}
	}
	tMax, rMin := 0.0, bw
	for _, ch := range act {
		if hopT[ch] > tMax {
			tMax = hopT[ch]
		}
		if r := bw - cl.rate[ch]*m; r < rMin {
			rMin = r
		}
	}
	res := &Result{
		Utilization: maxUtil,
		HopDelay:    tMax,
		Residual:    rMin,
		Feedforward: ff,
		Iterations:  iters,
		Flows:       cl.flows,
		Channels:    len(act),
	}
	// End-to-end composition, pay-bursts-only-once: injection
	// serialization M/C, h header waits, the flow's own burst drained
	// once against the worst residual rate, and the h-cycle header
	// pipeline.
	for h, cnt := range cl.classFlows {
		if cnt == 0 {
			continue
		}
		b := m/bw + float64(h)*tMax + m/rMin + float64(h)/bw
		res.Classes = append(res.Classes, FlowBound{Hops: h, Flows: cnt, Bound: b})
		res.WorstCase = b
	}
	return res, nil
}

// curveParams carries the shared service-curve parameters: message
// length M and link bandwidth C (flits, flits/cycle), the
// back-pressure allowance B = 2·V·BufCap, and the injection
// serialization delay M/C every flow pays before its first network
// channel.
type curveParams struct {
	msgLen  float64
	bw      float64
	backlog float64
	src     float64
}

// hopDelay is the rate-latency service latency of channel ch given
// the worst accumulated upstream delay acc of the traffic entering
// it: T = (σ0 + ρ·acc + B)/(C − ρ), with σ0 the aggregate
// token-bucket burst and ρ the aggregate flit rate.
func (cv curveParams) hopDelay(cl *chanLoad, ch int, acc float64) float64 {
	rho := cl.rate[ch] * cv.msgLen
	sigma := cl.mass[ch]*cv.msgLen + rho*acc
	return (sigma + cv.backlog) / (cv.bw - rho)
}

// composeFeedforward solves the burstiness recursion exactly on an
// acyclic dependency graph: channels are processed in topological
// order (Kahn's algorithm over the active subgraph), each one's
// entering burstiness grown by the worst accumulated
// (delay-so-far + hop delay) over its predecessors.
func composeFeedforward(top topology.Topology, cl *chanLoad, act []int, cv curveParams, hopT []float64) {
	deg := cl.deg
	indeg := make([]int, len(cl.rate))
	for _, ch := range act {
		v := top.Neighbor(ch/deg, ch%deg)
		if v < 0 {
			continue
		}
		for dim2 := 0; dim2 < deg; dim2++ {
			if cl.succ[ch*deg+dim2] && cl.rate[v*deg+dim2] > 0 {
				indeg[v*deg+dim2]++
			}
		}
	}
	// acc[ch] is the worst accumulated upstream delay of traffic
	// entering ch. Every active channel also carries first-hop
	// traffic (its tail node's own sources), whose only upstream
	// delay is the injection serialization.
	acc := make([]float64, len(cl.rate))
	queue := make([]int, 0, len(act))
	for _, ch := range act {
		acc[ch] = cv.src
		if indeg[ch] == 0 {
			queue = append(queue, ch)
		}
	}
	for len(queue) > 0 {
		ch := queue[0]
		queue = queue[1:]
		hopT[ch] = cv.hopDelay(cl, ch, acc[ch])
		v := top.Neighbor(ch/deg, ch%deg)
		if v < 0 {
			continue
		}
		out := acc[ch] + hopT[ch]
		for dim2 := 0; dim2 < deg; dim2++ {
			ch2 := v*deg + dim2
			if !cl.succ[ch*deg+dim2] || cl.rate[ch2] <= 0 {
				continue
			}
			if out > acc[ch2] {
				acc[ch2] = out
			}
			indeg[ch2]--
			if indeg[ch2] == 0 {
				queue = append(queue, ch2)
			}
		}
	}
}

// composeCyclic solves the burstiness recursion on a cyclic
// dependency graph. Per-flow paths are loop-free even when the
// channel graph is not, so the upstream delay of traffic entering a
// channel at hop position k is bounded by the injection delay plus
// (k−1) worst predecessor hop delays. That makes the map
//
//	T(ch) ← (σ0 + ρ·(M/C + (pos−1)·maxPred T) + B)/(C − ρ)
//
// monotone in T; iterating from the contention-free latency either
// stabilises (the fixed point, a valid bound) or grows without limit
// — burstiness amplification around the cycle outruns the residual
// service, and the operating point is unboundable.
func composeCyclic(top topology.Topology, cl *chanLoad, act []int, cv curveParams, hopT []float64) (int, error) {
	deg := cl.deg
	pred := make([]float64, len(cl.rate))
	for _, ch := range act {
		hopT[ch] = cv.hopDelay(cl, ch, cv.src)
	}
	for iter := 1; iter <= maxIter; iter++ {
		// pred[ch2] = worst hop delay over ch2's predecessors.
		for _, ch := range act {
			pred[ch] = 0
		}
		for _, ch := range act {
			v := top.Neighbor(ch/deg, ch%deg)
			if v < 0 {
				continue
			}
			for dim2 := 0; dim2 < deg; dim2++ {
				ch2 := v*deg + dim2
				if cl.succ[ch*deg+dim2] && cl.rate[ch2] > 0 && hopT[ch] > pred[ch2] {
					pred[ch2] = hopT[ch]
				}
			}
		}
		worst := 0.0
		for _, ch := range act {
			acc := cv.src + float64(cl.pos[ch]-1)*pred[ch]
			next := cv.hopDelay(cl, ch, acc)
			// Explosive growth overflows to +Inf within a few sweeps
			// and would turn the relative-change test into a NaN that
			// reads as converged — catch divergence explicitly.
			if math.IsNaN(next) || next > maxHopDelay {
				return iter, fmt.Errorf("%w: cyclic channel dependencies — burstiness amplification diverges (hop delay beyond %.0g cycles after %d iterations)",
					ErrUnboundable, maxHopDelay, iter)
			}
			rel := (next - hopT[ch]) / next
			if rel > worst {
				worst = rel
			}
			hopT[ch] = next
		}
		if worst <= tol {
			return iter, nil
		}
	}
	return maxIter, fmt.Errorf("%w: cyclic channel dependencies — burstiness fixed point still growing after %d iterations",
		ErrUnboundable, maxIter)
}

// Capacity bisects for the largest per-node rate in (lo, hi] at which
// Evaluate still produces a finite bound — the engine's conservative
// capacity, the bounds counterpart of model.SaturationRate. An
// invalid base configuration or a lo that is already unboundable is
// an error rather than a silent "capacity is lo" answer.
func Capacity(base Config, lo, hi float64) (float64, error) {
	base = base.withDefaults()
	if !(lo > 0) || !(hi > lo) {
		return 0, cfgerr.Errorf("bounds: capacity bracket [%v, %v], want 0 < lo < hi", lo, hi)
	}
	c := base
	c.Rate = lo
	if _, err := Evaluate(c); err != nil {
		return 0, fmt.Errorf("bounds: capacity bracket floor %v: %w", lo, err)
	}
	c.Rate = hi
	if _, err := Evaluate(c); err == nil {
		return hi, nil
	} else if !errors.Is(err, ErrUnboundable) {
		return 0, err
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		c.Rate = mid
		_, err := Evaluate(c)
		switch {
		case err == nil:
			lo = mid
		case errors.Is(err, ErrUnboundable):
			hi = mid
		default:
			return 0, err
		}
	}
	return lo, nil
}
