// Package model implements the paper's analytical performance model
// for fully adaptive wormhole routing in star (and, as an extension,
// hypercube) interconnection networks. It predicts the mean message
// latency
//
//	Latency = (S̄ + W̄s) · V̄                        (eq. 1)
//
// where S̄ is the mean network latency, W̄s the mean source-queue
// wait and V̄ the average virtual-channel multiplexing degree. The
// network latency of a destination at distance h is
//
//	S_i = M + h + 1 + Σ_k P_block(i,k) · w̄         (eqs. 4–6)
//
// with blocking probabilities computed per hop over the adaptivity
// structure of the minimal paths (eqs. 7–11, via PathStructure and
// blockingState), the channel wait w̄ from an M/G/1 queue with the
// paper's variance approximation (eqs. 12–15), the source wait from
// an M/G/1 queue at rate λg/V (eq. 16), the VC occupancy from a
// truncated birth–death chain (eq. 18) and V̄ from Dally's formula
// (eq. 19). The interdependent quantities are solved by damped
// fixed-point iteration, exactly as the paper prescribes.
//
// The +1 in S_i is the one-cycle injection-channel pipeline offset
// that the simulator (and any real router) exhibits; the paper's
// eq. 4 omits it. So the model's zero-load latency is M + d̄ + 1, not
// the paper's M + d̄.
package model

import (
	"errors"
	"fmt"
	"math"

	"starperf/internal/cfgerr"
	"starperf/internal/queueing"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

// Config describes one model evaluation.
type Config struct {
	// Paths is the minimal-path structure of the topology (use
	// NewStarPaths or NewCubePaths).
	Paths PathStructure
	// Top supplies degree/diameter/average distance; it must be the
	// same network Paths was built for. Any topology.Topology will
	// do; stargraph.NewShape gives S_n's without building the graph.
	Top topology.Shape
	// Kind is the routing algorithm (default EnhancedNbc).
	Kind routing.Kind
	// V is the number of virtual channels per physical channel.
	V int
	// MsgLen is the (mean) message length M in flits.
	MsgLen int
	// MsgLenVar is the variance of the message length when lengths
	// are drawn from a distribution (0 for the paper's fixed M). It
	// widens the service-time variance from the paper's (S̄−M)² to
	// (S̄−M)² + Var(M), since the minimum service time shifts with
	// the message's own length.
	MsgLenVar float64
	// Rate is the per-node generation rate λg (messages/cycle).
	Rate float64
	// Blocking selects the blocking-probability assembly (default
	// Window).
	Blocking BlockingModel
	// Switching selects the flow-control discipline the channel
	// holding times are derived from (default Wormhole).
	Switching SwitchingMode
	// Variance selects the service-time variance approximation used
	// in the M/G/1 waits (default PaperVariance, the paper's
	// σ² = (S̄−M)²). The paper's §5 attributes its saturation-region
	// error to this approximation; the ablation A4 quantifies that
	// claim.
	Variance VarianceModel
	// SingleOutput models deterministic minimal routing (the
	// routing.FirstProfitable baseline): the header has exactly one
	// candidate channel per hop, so every hop's adaptivity degree is
	// forced to 1 regardless of the path structure.
	SingleOutput bool
	// FixedOccupancy, when non-nil, replaces the eq.-18 birth–death
	// virtual-channel occupancy with a measured distribution (len
	// V+1, e.g. a simulator's normalised VCBusyHist). This hybrid
	// mode isolates how much model error stems from the occupancy
	// approximation versus the blocking analysis.
	FixedOccupancy []float64
}

// The fixed-point solve's settings: the damping factor, the relative
// convergence tolerance on S̄ and the iteration cap.
const (
	damping = 0.5
	tol     = 1e-10
	maxIter = 10000
)

// injectionCycle is the one-cycle injection-channel offset every
// message pays on top of its M + h flit times (see the package doc).
const injectionCycle = 1.0

// Result is one model evaluation.
type Result struct {
	// Latency is the predicted mean message latency (eq. 1).
	Latency float64
	// NetLatency is S̄, the mean network latency.
	NetLatency float64
	// SourceWait is W̄s.
	SourceWait float64
	// ChannelWait is w̄, the mean wait to acquire a virtual channel.
	ChannelWait float64
	// Multiplexing is V̄.
	Multiplexing float64
	// ChannelRate is λc (eq. 3) and Utilization λc·S̄.
	ChannelRate, Utilization float64
	// MeanBlocking is the traffic-weighted mean per-hop blocking
	// probability (a diagnostic comparable to the simulator's
	// BlockedAttempts/Attempts ratio).
	MeanBlocking float64
	// VCOccupancy is the converged P_v distribution (eq. 18).
	VCOccupancy []float64
	// Iterations is the number of fixed-point steps performed;
	// Converged reports whether the tolerance was met.
	Iterations int
	Converged  bool
	// PerClass decomposes the converged network latency by
	// destination class (eq. 4 per class), ordered as
	// Config.Paths.Classes().
	PerClass []ClassLatency
}

// ClassLatency is the converged latency decomposition of one
// destination class.
type ClassLatency struct {
	// Label and H identify the class (see PathClass).
	Label string
	H     int
	// Weight is the class's share of the traffic.
	Weight float64
	// NetLatency is S_i = M + h + B for this class; Blocking the
	// expected total blocking time B along the path.
	NetLatency, Blocking float64
}

// VarianceModel selects the service-time variance approximation.
type VarianceModel int

const (
	// PaperVariance is the paper's σ² = (S̄−M)² (eq. 14 with the
	// suggestion of Draper & Ghosh): zero at zero load, growing with
	// congestion.
	PaperVariance VarianceModel = iota
	// ExponentialVariance assumes exponentially distributed service,
	// σ² = S̄² (the heaviest standard assumption).
	ExponentialVariance
	// DeterministicVariance assumes fixed service, σ² = 0 (the
	// lightest: M/D/1 waits).
	DeterministicVariance
)

// String names the variance model.
func (v VarianceModel) String() string {
	switch v {
	case PaperVariance:
		return "paper"
	case ExponentialVariance:
		return "exponential"
	case DeterministicVariance:
		return "deterministic"
	default:
		return "unknown"
	}
}

// variance evaluates the selected approximation for mean service s
// and message length m.
func (v VarianceModel) variance(s, m float64) float64 {
	switch v {
	case ExponentialVariance:
		return s * s
	case DeterministicVariance:
		return 0
	default:
		d := s - m
		return d * d
	}
}

// SwitchingMode selects the flow-control discipline modelled.
type SwitchingMode int

const (
	// Wormhole is the paper's discipline: blocked messages stall in
	// place across a chain of channels, so a channel's holding time
	// is approximated by the whole network latency (eq. 13).
	Wormhole SwitchingMode = iota
	// CutThrough is virtual cut-through: blocked messages are
	// buffered whole at the router, so a channel is held for just
	// the M-flit transmission. The simulator's counterpart is
	// desim.Config.CutThrough.
	CutThrough
)

// String names the switching mode.
func (s SwitchingMode) String() string {
	switch s {
	case Wormhole:
		return "wormhole"
	case CutThrough:
		return "cut-through"
	default:
		return "unknown"
	}
}

// ErrSaturated is returned when the requested operating point lies at
// or beyond saturation (channel or source utilisation ≥ 1): the
// model's queues have no steady state there, matching the vertical
// asymptote of the latency curves.
var ErrSaturated = errors.New("model: operating point beyond saturation")

// Evaluate solves the model at cfg's operating point.
func Evaluate(cfg Config) (*Result, error) {
	if cfg.Paths == nil || cfg.Top == nil {
		return nil, cfgerr.New("model: nil path structure or topology")
	}
	if cfg.MsgLen <= 0 {
		return nil, cfgerr.Errorf("model: message length %d", cfg.MsgLen)
	}
	if cfg.MsgLenVar < 0 {
		return nil, cfgerr.Errorf("model: negative message-length variance %v", cfg.MsgLenVar)
	}
	if cfg.Rate < 0 {
		return nil, cfgerr.Errorf("model: negative rate %v", cfg.Rate)
	}
	spec, err := routing.New(cfg.Kind, cfg.Top, cfg.V)
	if err != nil {
		return nil, err
	}
	if cfg.FixedOccupancy != nil {
		if len(cfg.FixedOccupancy) != cfg.V+1 {
			return nil, cfgerr.Errorf("model: FixedOccupancy has %d entries, want V+1=%d",
				len(cfg.FixedOccupancy), cfg.V+1)
		}
		var s float64
		for _, p := range cfg.FixedOccupancy {
			if p < 0 {
				return nil, cfgerr.New("model: negative FixedOccupancy entry")
			}
			s += p
		}
		if math.Abs(s-1) > 1e-6 {
			return nil, cfgerr.Errorf("model: FixedOccupancy sums to %v", s)
		}
	}

	classes := cfg.Paths.Classes()
	var totalDst float64
	for _, c := range classes {
		totalDst += float64(c.Count)
	}
	m := float64(cfg.MsgLen)
	dbar := cfg.Top.AvgDistance()
	lambdaC := cfg.Rate * dbar / float64(cfg.Top.Degree()) // eq. 3

	s := m + dbar + injectionCycle // zero-load starting point
	res := &Result{ChannelRate: lambdaC}
	bs := newBlockingState(spec, cfg.Blocking)
	// per-class blocking sums from each source colour, refilled every
	// iteration
	nc := len(classes)
	sums := make([]float64, 2*nc)
	blk := [2][]float64{sums[:nc], sums[nc:]}
	eval := bs.Eval
	if cfg.SingleOutput {
		eval = func(h Hop) float64 {
			h.F = 1
			return bs.Eval(h)
		}
	}

	for iter := 1; iter <= maxIter; iter++ {
		res.Iterations = iter
		stability := s
		if cfg.Switching == CutThrough {
			stability = m
		}
		if lambdaC*stability >= 1 {
			return res, fmt.Errorf("%w (λc·hold = %.4f at iteration %d)",
				ErrSaturated, lambdaC*stability, iter)
		}
		// The channel holding time: under wormhole switching a blocked
		// message holds its chain of virtual channels, so the paper
		// approximates the service time by the whole network latency
		// S̄ (eq. 13); under virtual cut-through a blocked message is
		// absorbed by the router and a channel is held only for its
		// own M-flit transmission.
		hold := s
		if cfg.Switching == CutThrough {
			hold = m
		}
		occ := cfg.FixedOccupancy
		if occ == nil {
			occ = queueing.VCOccupancy(lambdaC, hold, cfg.V) // eq. 18
		}
		// eq. 15, with the variance widened by Var(M) when message
		// lengths are drawn from a distribution
		w, err := queueing.MG1Wait(lambdaC, hold, cfg.Variance.variance(hold, m)+cfg.MsgLenVar)
		if err != nil {
			return res, fmt.Errorf("%w: %v", ErrSaturated, err)
		}
		bs.update(occ)

		// eqs. 4–7: average network latency over destination classes
		// and the two source colours.
		if res.PerClass == nil {
			res.PerClass = make([]ClassLatency, len(classes))
		}
		var sNew, blockSum, hopSum float64
		for c0, b := range blk {
			cfg.Paths.BlockSums(c0, eval, b)
		}
		for idx, c := range classes {
			var bsum float64
			for _, b := range blk {
				bsum += 0.5 * b[idx]
			}
			w8 := float64(c.Count) / totalDst
			si := m + float64(c.H) + injectionCycle + bsum*w
			res.PerClass[idx] = ClassLatency{
				Label: c.Label, H: c.H, Weight: w8,
				NetLatency: si, Blocking: bsum * w,
			}
			sNew += w8 * si
			blockSum += w8 * bsum
			hopSum += w8 * float64(c.H)
		}
		res.ChannelWait = w
		res.VCOccupancy = occ
		res.MeanBlocking = blockSum / hopSum

		prev := s
		s = damping*sNew + (1-damping)*s
		if math.Abs(s-prev) <= tol*prev {
			res.Converged = true
			break
		}
	}

	res.NetLatency = s
	hold := s
	if cfg.Switching == CutThrough {
		hold = m
	}
	res.Utilization = lambdaC * hold
	if res.Utilization >= 1 {
		return res, fmt.Errorf("%w (λc·hold = %.4f)", ErrSaturated, res.Utilization)
	}
	// eq. 16, same variance widening as the channel queue; under
	// cut-through the injection channel is likewise held only for the
	// message's own transmission
	ws, err := queueing.MG1Wait(cfg.Rate/float64(cfg.V), hold,
		cfg.Variance.variance(hold, m)+cfg.MsgLenVar)
	if err != nil {
		return res, fmt.Errorf("%w: source queue: %v", ErrSaturated, err)
	}
	res.SourceWait = ws
	res.Multiplexing = queueing.Multiplexing(res.VCOccupancy) // eq. 19
	res.Latency = (s + ws) * res.Multiplexing                 // eq. 1
	if !res.Converged {
		return res, fmt.Errorf("%w: no convergence in %d iterations (ΔS̄ at %.3g)", ErrSaturated, maxIter, s)
	}
	return res, nil
}

// EvaluateStar is a convenience wrapper: it evaluates the model on
// S_n's path structure and closed-form shape for the paper's setting.
func EvaluateStar(n, v, msgLen int, rate float64, kind routing.Kind, blocking BlockingModel) (*Result, error) {
	sp, err := NewStarPaths(n)
	if err != nil {
		return nil, err
	}
	g, err := stargraph.NewShape(n)
	if err != nil {
		return nil, err
	}
	return Evaluate(Config{
		Paths:    sp,
		Top:      g,
		Kind:     kind,
		V:        v,
		MsgLen:   msgLen,
		Rate:     rate,
		Blocking: blocking,
	})
}

// SaturationRate finds (by bisection) the largest per-node rate at
// which the model still converges to a stable operating point, a
// useful summary of each configuration's capacity. Saturation and
// non-convergence are what the bisection probes for and mark a rate
// unstable; an invalid base Config (matching cfgerr.ErrInvalid) is an
// error — every probe would fail identically, so the bisection would
// silently report lo as the capacity.
func SaturationRate(base Config, lo, hi float64) (float64, error) {
	stable := func(r float64) (bool, error) {
		c := base
		c.Rate = r
		_, err := Evaluate(c)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, cfgerr.ErrInvalid):
			return false, err
		default:
			return false, nil // saturated or non-convergent
		}
	}
	ok, err := stable(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return lo, nil
	}
	for hi-lo > 1e-6*hi {
		mid := (lo + hi) / 2
		ok, err := stable(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
