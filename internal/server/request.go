package server

import (
	"errors"
	"math"

	"starperf/internal/bounds"
	"starperf/internal/cfgerr"
	"starperf/internal/desim"
	"starperf/internal/experiments"
	"starperf/internal/hypercube"
	"starperf/internal/jobs"
	"starperf/internal/mesh"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
)

// The wire schema of starperfd. Every request type normalises its
// defaults (withDefaults) BEFORE hashing, so an explicit
// `"seed": 1` and an omitted seed are the same job, the same cache
// entry and the same singleflight flight. hash is a request's content
// id, the one the registry's parse step assigns (kinds.go); the golden
// tests pin it. prepare validates a request and returns its runner,
// closing over the artefacts validation built so the run does not
// build them again. Validation errors carry the cfgerr contract: they
// match starperf.ErrInvalidConfig and map to HTTP 400.

// runner computes one prepared request's result.
type runner func() (any, error)

// TopoSpec names a topology on the wire.
type TopoSpec struct {
	// Kind is "star", "hypercube", "torus" or "mesh".
	Kind string `json:"kind"`
	// N is the star size n (S_n) or the hypercube dimension m.
	N int `json:"n,omitempty"`
	// K and Dim are the k-ary n-cube/mesh arity and dimension.
	K   int `json:"k,omitempty"`
	Dim int `json:"dim,omitempty"`
}

// build constructs the topology.
func (t TopoSpec) build() (topology.Topology, error) {
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
func (t TopoSpec) shape() (topology.Shape, error) {
	if t.Kind == "star" {
		return stargraph.NewShape(t.N)
	}
	top, err := t.build()
	return top, err
}

// paths constructs the model's path structure for the topology. It
// accepts only the networks the run's shape accepts, so a request the
// run would refuse fails here, before the cache lookup and admission:
// the model's star cycle types go up to S_12, but stargraph.NewShape
// stops at S_10 (the torus paths share torus.New's node bound).
func (t TopoSpec) paths() (model.PathStructure, error) {
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
func (t TopoSpec) routed(routingName string, v int) (topology.Topology, routing.Spec, error) {
	top, err := t.build()
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

// PredictRequest is POST /v1/predict: one analytical-model
// evaluation (paper eq. 16 mean latency), served synchronously.
type PredictRequest struct {
	Topo    TopoSpec `json:"topo"`
	Routing string   `json:"routing,omitempty"`
	V       int      `json:"v"`
	MsgLen  int      `json:"msg_len"`
	Rate    float64  `json:"rate"`
}

func (r PredictRequest) withDefaults() PredictRequest {
	if r.Routing == "enhanced-nbc" || r.Routing == "enbc" {
		r.Routing = "" // one canonical spelling per algorithm
	}
	return r
}

func (r PredictRequest) hash() (string, error) { return jobs.Hash(predictKind.name, r) }

// prepare builds the model's path structure and routing kind. A
// saturated operating point is a valid answer (Saturated true), not
// an error. The topology's shape is built in the run, not here: a
// cache hit never needs it.
func (r PredictRequest) prepare() (runner, error) {
	paths, err := r.Topo.paths()
	if err != nil {
		return nil, err
	}
	kind, err := routing.ParseKind(r.Routing)
	if err != nil {
		return nil, err
	}
	return func() (any, error) {
		top, err := r.Topo.shape()
		if err != nil {
			return nil, err
		}
		res, err := model.Evaluate(model.Config{
			Paths: paths, Top: top, Kind: kind,
			V: r.V, MsgLen: r.MsgLen, Rate: r.Rate,
		})
		if err != nil {
			if errors.Is(err, model.ErrSaturated) {
				return &PredictResult{Saturated: true}, nil
			}
			return nil, err
		}
		return &PredictResult{
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

// PredictResult is the predict response body. When Saturated is true
// the operating point lies beyond the model's saturation fixed point
// and the remaining fields are zero.
type PredictResult struct {
	Saturated     bool    `json:"saturated"`
	LatencyCycles float64 `json:"latency_cycles"`
	NetLatency    float64 `json:"net_latency"`
	SourceWait    float64 `json:"source_wait"`
	ChannelWait   float64 `json:"channel_wait"`
	Multiplexing  float64 `json:"multiplexing"`
	Utilization   float64 `json:"utilization"`
	MeanBlocking  float64 `json:"mean_blocking"`
	Converged     bool    `json:"converged"`
}

// BoundsRequest is POST /v1/bounds: one worst-case delay-bound
// evaluation (network-calculus engine, internal/bounds), served
// synchronously like /v1/predict.
type BoundsRequest struct {
	Topo    TopoSpec `json:"topo"`
	Routing string   `json:"routing,omitempty"`
	V       int      `json:"v"`
	MsgLen  int      `json:"msg_len"`
	Rate    float64  `json:"rate"`
	BufCap  int      `json:"buf_cap,omitempty"`
	LinkBW  float64  `json:"link_bw,omitempty"`
}

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

func (r BoundsRequest) hash() (string, error) { return jobs.Hash(boundsKind.name, r) }

// prepare builds the topology and routing kind. An
// unboundable operating point is a valid answer (Unboundable true),
// not an error — the bounds counterpart of PredictResult.Saturated.
func (r BoundsRequest) prepare() (runner, error) {
	top, spec, err := r.Topo.routed(r.Routing, r.V)
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
				return &BoundsResult{Unboundable: true}, nil
			}
			return nil, err
		}
		out := &BoundsResult{
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
			out.Classes = append(out.Classes, BoundsClass{
				Hops: fb.Hops, Flows: fb.Flows, Bound: fb.Bound,
			})
		}
		return out, nil
	}, nil
}

// BoundsResult is the bounds response body. When Unboundable is true
// no finite worst-case bound exists at the operating point and the
// remaining fields are zero.
type BoundsResult struct {
	Unboundable bool          `json:"unboundable"`
	WorstBound  float64       `json:"worst_bound"`
	Classes     []BoundsClass `json:"classes,omitempty"`
	Utilization float64       `json:"utilization"`
	HopDelay    float64       `json:"hop_delay"`
	Residual    float64       `json:"residual"`
	Feedforward bool          `json:"feedforward"`
	Iterations  int           `json:"iterations"`
	Flows       int           `json:"flows"`
	Channels    int           `json:"channels"`
}

// BoundsClass is one per-hop-count flow class's bound.
type BoundsClass struct {
	Hops  int     `json:"hops"`
	Flows int     `json:"flows"`
	Bound float64 `json:"bound"`
}

// SimulateRequest is POST /v1/simulate: one flit-level wormhole
// simulation, served asynchronously (the response names a job).
type SimulateRequest struct {
	Topo    TopoSpec `json:"topo"`
	Routing string   `json:"routing,omitempty"`
	V       int      `json:"v"`
	MsgLen  int      `json:"msg_len"`
	Rate    float64  `json:"rate"`
	BufCap  int      `json:"buf_cap,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	// Warmup/Measure/Drain are the cycle windows (defaults
	// 8000/30000/120000, the experiment harness's).
	Warmup    int64 `json:"warmup,omitempty"`
	Measure   int64 `json:"measure,omitempty"`
	Drain     int64 `json:"drain,omitempty"`
	MaxMsgAge int64 `json:"max_msg_age,omitempty"`
}

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

func (r SimulateRequest) hash() (string, error) { return jobs.Hash(simulateKind.name, r) }

// prepare builds the topology and the routing spec the simulator runs
// on, and checks the simulator configuration, so a request the
// simulator would reject is a 400 rather than a failed job.
func (r SimulateRequest) prepare() (runner, error) {
	top, spec, err := r.Topo.routed(r.Routing, r.V)
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
		out := &SimulateResult{
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

// SimulateResult is the simulate job's result body. Latencies are in
// cycles; AcceptedRate in messages/node/cycle.
type SimulateResult struct {
	MeanLatency  float64 `json:"mean_latency"`
	MinLatency   float64 `json:"min_latency"`
	MaxLatency   float64 `json:"max_latency"`
	P50Latency   int     `json:"p50_latency"`
	P95Latency   int     `json:"p95_latency"`
	P99Latency   int     `json:"p99_latency"`
	Measured     uint64  `json:"measured"`
	Delivered    uint64  `json:"delivered"`
	AcceptedRate float64 `json:"accepted_rate"`
	Cycles       int64   `json:"cycles"`
	Saturated    bool    `json:"saturated"`
	Aborted      bool    `json:"aborted"`
	AbortReason  string  `json:"abort_reason,omitempty"`
}

// SweepRequest is POST /v1/sweep: one panel of the paper's Figure 1
// (model and simulation curves), served asynchronously as one job
// whose simulations run at most Workers at a time.
type SweepRequest struct {
	// Panel is "a", "b" or "c".
	Panel  string   `json:"panel"`
	Points int      `json:"points,omitempty"`
	Seeds  []uint64 `json:"seeds,omitempty"`
	// Warmup and Measure are the per-run cycle windows.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Workers bounds the sweep's own simulation parallelism, 0..64
	// (default 1 — serial; any value produces byte-identical panels).
	Workers int `json:"workers,omitempty"`
}

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

func (r SweepRequest) hash() (string, error) { return jobs.Hash(sweepKind.name, r) }

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
		out := &SweepResult{Title: p.Title, XLabel: p.XLabel}
		for _, s := range p.Series {
			ws := SweepSeries{Name: s.Name, V: s.V, MsgLen: s.MsgLen}
			for _, pt := range s.Points {
				ws.Points = append(ws.Points, SweepPoint{
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

// SweepResult is the sweep job's result body: the paper's Figure 1
// panel flattened into a JSON-safe shape (saturated model points and
// fully failed simulation points carry null instead of NaN).
type SweepResult struct {
	Title  string        `json:"title"`
	XLabel string        `json:"x_label"`
	Series []SweepSeries `json:"series"`
}

// SweepSeries is one curve (fixed V and message length) of a panel.
type SweepSeries struct {
	Name   string       `json:"name"`
	V      int          `json:"v"`
	MsgLen int          `json:"msg_len"`
	Points []SweepPoint `json:"points"`
}

// SweepPoint is one operating point: model and simulated mean latency
// with the simulation's ~95% half-width over seeds.
type SweepPoint struct {
	Rate           float64  `json:"rate"`
	Model          *float64 `json:"model"`
	ModelSaturated bool     `json:"model_saturated"`
	Sim            *float64 `json:"sim"`
	SimHW          float64  `json:"sim_hw"`
	SimSaturated   bool     `json:"sim_saturated"`
	Failed         bool     `json:"failed,omitempty"`
	Err            string   `json:"error,omitempty"`
}
