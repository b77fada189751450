package server

import (
	"errors"
	"math"

	"starperf/internal/bounds"
	"starperf/internal/cfgerr"
	"starperf/internal/desim"
	"starperf/internal/experiments"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
	"starperf/internal/wire"
)

// The server side of the wire schema (internal/wire). Each request
// type is a defined type over its wire struct, so the server adds
// methods and the JSON stays the wire's. Every request normalises its
// defaults (withDefaults) BEFORE hashing, so an explicit `"seed": 1`
// and an omitted seed are the same job, the same cache entry and the
// same singleflight flight; the registry's parse step assigns the
// content id (kinds.go), and the golden tests pin it. prepare
// validates a request and returns its runner, closing over the
// artefacts validation built so the run does not build them again.
// Validation errors carry the cfgerr contract: they match
// starperf.ErrInvalidConfig and map to HTTP 400.

// runner computes one prepared request's result.
type runner func() (any, error)

// TopoSpec names a topology on the wire.
type TopoSpec = wire.TopoSpec

// build constructs the topology.
func build(t TopoSpec) (topology.Topology, error) {
	switch t.Kind {
	case "star":
		return stargraph.New(t.N)
	case "hypercube":
		return hypercube.New(t.N)
	case "torus":
		return torus.New(t.K, t.Dim)
	case "mesh":
		return mesh.New(t.K, t.Dim)
	default:
		return nil, cfgerr.Errorf("server: unknown topology kind %q (want star, hypercube, torus or mesh)", t.Kind)
	}
}

// shape returns what the model reads of the topology: S_n's
// closed-form shape (no n!-node graph) for stars, the built topology
// otherwise.
func shape(t TopoSpec) (topology.Shape, error) {
	if t.Kind == "star" {
		return stargraph.NewShape(t.N)
	}
	top, err := build(t)
	return top, err
}

// modelPaths constructs the model's path structure for the topology.
// It accepts only the networks the run's shape accepts, so a request
// the run would refuse fails here, before the cache lookup and
// admission: the model's star cycle types go up to S_12, but
// stargraph.NewShape stops at S_10 (the torus paths share torus.New's
// node bound).
func modelPaths(t TopoSpec) (model.PathStructure, error) {
	switch t.Kind {
	case "star":
		if t.N > stargraph.MaxEnumerableN {
			return nil, cfgerr.Errorf("server: star n=%d out of supported range [2,%d]", t.N, stargraph.MaxEnumerableN)
		}
		return model.NewStarPaths(t.N)
	case "hypercube":
		return model.NewCubePaths(t.N)
	case "torus":
		return model.NewTorusPaths(t.K, t.Dim)
	case "mesh":
		return nil, cfgerr.New("server: the analytical model does not cover meshes (broken channel symmetry) — use /v1/simulate")
	default:
		return nil, cfgerr.Errorf("server: unknown topology kind %q (want star, hypercube, torus or mesh)", t.Kind)
	}
}

// routed builds the topology and the routing spec for v virtual
// channels on it: the shared validation of the kinds that route
// messages.
func routed(t TopoSpec, routingName string, v int) (topology.Topology, routing.Spec, error) {
	top, err := build(t)
	if err != nil {
		return nil, routing.Spec{}, err
	}
	kind, err := routing.ParseKind(routingName)
	if err != nil {
		return nil, routing.Spec{}, err
	}
	spec, err := routing.New(kind, top, v)
	return top, spec, err
}

// PredictRequest is POST /v1/predict, served synchronously.
type PredictRequest wire.PredictRequest

func (r PredictRequest) withDefaults() PredictRequest {
	if r.Routing == "enhanced-nbc" || r.Routing == "enbc" {
		r.Routing = "" // one canonical spelling per algorithm
	}
	return r
}

// prepare builds the model's path structure and routing kind. A
// saturated operating point is a valid answer (Saturated true), not
// an error. The topology's shape is built in the run, not here: a
// cache hit never needs it.
func (r PredictRequest) prepare() (runner, error) {
	paths, err := modelPaths(r.Topo)
	if err != nil {
		return nil, err
	}
	kind, err := routing.ParseKind(r.Routing)
	if err != nil {
		return nil, err
	}
	return func() (any, error) {
		top, err := shape(r.Topo)
		if err != nil {
			return nil, err
		}
		res, err := model.Evaluate(model.Config{
			Paths: paths, Top: top, Kind: kind,
			V: r.V, MsgLen: r.MsgLen, Rate: r.Rate,
		})
		if err != nil {
			if errors.Is(err, model.ErrSaturated) {
				return &wire.PredictResult{Saturated: true}, nil
			}
			return nil, err
		}
		return &wire.PredictResult{
			LatencyCycles: res.Latency,
			NetLatency:    res.NetLatency,
			SourceWait:    res.SourceWait,
			ChannelWait:   res.ChannelWait,
			Multiplexing:  res.Multiplexing,
			Utilization:   res.Utilization,
			MeanBlocking:  res.MeanBlocking,
			Converged:     res.Converged,
		}, nil
	}, nil
}

// BoundsRequest is POST /v1/bounds, served synchronously like
// /v1/predict.
type BoundsRequest wire.BoundsRequest

func (r BoundsRequest) withDefaults() BoundsRequest {
	if r.Routing == "enhanced-nbc" || r.Routing == "enbc" {
		r.Routing = "" // one canonical spelling per algorithm
	}
	if r.BufCap == 0 {
		r.BufCap = 2
	}
	if r.LinkBW == 0 {
		r.LinkBW = 1
	}
	return r
}

// prepare refuses a topology past the engine's node cap from its
// shape, before a star's n!-node graph is built (the other kinds'
// constructors build no node tables), then builds the topology and
// routing kind. An unboundable operating point is a
// valid answer (Unboundable true), not an error — the bounds
// counterpart of PredictResult.Saturated.
func (r BoundsRequest) prepare() (runner, error) {
	s, err := shape(r.Topo)
	if err != nil {
		return nil, err
	}
	if s.N() > bounds.MaxNodes {
		return nil, cfgerr.Errorf("server: bounds analyses at most %d nodes, the topology has %d", bounds.MaxNodes, s.N())
	}
	top, spec, err := routed(r.Topo, r.Routing, r.V)
	if err != nil {
		return nil, err
	}
	return func() (any, error) {
		res, err := bounds.Evaluate(bounds.Config{
			Top: top, Kind: spec.Kind,
			V: r.V, MsgLen: r.MsgLen, Rate: r.Rate,
			BufCap: r.BufCap, LinkBW: r.LinkBW,
		})
		if err != nil {
			if errors.Is(err, bounds.ErrUnboundable) {
				return &wire.BoundsResult{Unboundable: true}, nil
			}
			return nil, err
		}
		out := &wire.BoundsResult{
			WorstBound:  res.WorstCase,
			Utilization: res.Utilization,
			HopDelay:    res.HopDelay,
			Residual:    res.Residual,
			Feedforward: res.Feedforward,
			Iterations:  res.Iterations,
			Flows:       res.Flows,
			Channels:    res.Channels,
		}
		for _, fb := range res.Classes {
			out.Classes = append(out.Classes, wire.BoundsClass{
				Hops: fb.Hops, Flows: fb.Flows, Bound: fb.Bound,
			})
		}
		return out, nil
	}, nil
}

// SimulateRequest is POST /v1/simulate, served asynchronously (the
// response names a job).
type SimulateRequest wire.SimulateRequest

func (r SimulateRequest) withDefaults() SimulateRequest {
	if r.Routing == "enhanced-nbc" || r.Routing == "enbc" {
		r.Routing = ""
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.BufCap == 0 {
		r.BufCap = 2
	}
	if r.Warmup == 0 {
		r.Warmup = 8000
	}
	if r.Measure == 0 {
		r.Measure = 30000
	}
	if r.Drain == 0 {
		r.Drain = 120000
	}
	return r
}

// prepare builds the topology and the routing spec the simulator runs
// on, and checks the simulator configuration, so a request the
// simulator would reject is a 400 rather than a failed job.
func (r SimulateRequest) prepare() (runner, error) {
	top, spec, err := routed(r.Topo, r.Routing, r.V)
	if err != nil {
		return nil, err
	}
	cfg := desim.Config{
		Top: top, Spec: spec,
		Rate: r.Rate, MsgLen: r.MsgLen, BufCap: r.BufCap, Seed: r.Seed,
		WarmupCycles: r.Warmup, MeasureCycles: r.Measure, DrainCycles: r.Drain,
		MaxMsgAge: r.MaxMsgAge,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func() (any, error) {
		res, err := desim.Run(cfg)
		if err != nil {
			return nil, err
		}
		out := &wire.SimulateResult{
			MeanLatency:  res.Latency.Mean(),
			MinLatency:   res.Latency.Min(),
			MaxLatency:   res.Latency.Max(),
			Measured:     res.MeasuredDelivered,
			Delivered:    res.Delivered,
			AcceptedRate: float64(res.DeliveredInWindow) / float64(r.Measure) / float64(top.N()),
			Cycles:       res.Cycles,
			Saturated:    res.Saturated(),
			Aborted:      res.Aborted,
			AbortReason:  res.AbortReason,
		}
		if res.LatencyHist != nil && res.LatencyHist.Total() > 0 {
			out.P50Latency = res.LatencyHist.Quantile(0.50)
			out.P95Latency = res.LatencyHist.Quantile(0.95)
			out.P99Latency = res.LatencyHist.Quantile(0.99)
		}
		return out, nil
	}, nil
}

// SweepRequest is POST /v1/sweep, served asynchronously as one job
// whose simulations run at most Workers at a time.
type SweepRequest wire.SweepRequest

func (r SweepRequest) withDefaults() SweepRequest {
	if r.Points == 0 {
		r.Points = 10
	}
	if len(r.Seeds) == 0 {
		r.Seeds = []uint64{1, 2, 3}
	}
	if r.Warmup == 0 {
		r.Warmup = 8000
	}
	if r.Measure == 0 {
		r.Measure = 30000
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	return r
}

// prepare checks the panel shape; the panel's models and simulations
// are all built inside the run.
func (r SweepRequest) prepare() (runner, error) {
	switch r.Panel {
	case "a", "b", "c":
	default:
		return nil, cfgerr.Errorf("server: unknown sweep panel %q (want a, b or c)", r.Panel)
	}
	if r.Points < 0 || r.Points > 64 {
		return nil, cfgerr.Errorf("server: sweep points %d outside 1..64", r.Points)
	}
	if len(r.Seeds) > 16 {
		return nil, cfgerr.Errorf("server: %d sweep seeds, at most 16", len(r.Seeds))
	}
	if r.Workers < 0 || r.Workers > 64 {
		return nil, cfgerr.Errorf("server: sweep workers %d outside 1..64", r.Workers)
	}
	return func() (any, error) {
		p, err := experiments.Figure1Panel(experiments.Figure1Config{
			Panel:  r.Panel[0],
			Points: r.Points,
			Sim: experiments.SimOptions{
				Seeds:   r.Seeds,
				Warmup:  r.Warmup,
				Measure: r.Measure,
				Workers: r.Workers,
			},
		})
		if err != nil {
			return nil, err
		}
		out := &wire.SweepResult{Title: p.Title, XLabel: p.XLabel}
		for _, s := range p.Series {
			ws := wire.SweepSeries{Name: s.Name, V: s.V, MsgLen: s.MsgLen}
			for _, pt := range s.Points {
				ws.Points = append(ws.Points, wire.SweepPoint{
					Rate:           pt.Rate,
					Model:          finite(pt.Model),
					ModelSaturated: pt.ModelSaturated,
					Sim:            finite(pt.Sim),
					SimHW:          pt.SimHW,
					SimSaturated:   pt.SimSaturated,
					Failed:         pt.Failed,
					Err:            pt.Err,
				})
			}
			out.Series = append(out.Series, ws)
		}
		return out, nil
	}, nil
}

// finite maps a latency to the wire, where a NaN (model saturated, or
// no surviving replication) becomes null — JSON has no NaN.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
