package starperf

import (
	"starperf/internal/bounds"
	"starperf/internal/cfgerr"
	"starperf/internal/desim"
	"starperf/internal/experiments"
	"starperf/internal/faults"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/model"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
	"starperf/internal/traffic"
)

// This file is the public face of the library: the implementation
// lives under internal/ (see README for the package map) and is
// re-exported here via type aliases, so downstream modules can import
// just "starperf" and reach every entry point while the internals
// stay free to evolve.
//
// Error contract. Every entry point reports failures in one of three
// documented classes, distinguishable with errors.Is / errors.As:
//
//   - invalid configuration → errors.Is(err, ErrInvalidConfig):
//     out-of-range parameters, unknown kinds, inconsistent options —
//     anywhere the inputs, not the computation, are at fault;
//   - saturation → errors.Is(err, ErrSaturated): the model has no
//     steady state at the requested operating point (Predict only);
//   - unboundable → errors.Is(err, ErrUnboundable): no finite
//     worst-case delay bound exists at the requested operating point
//     (PredictBounds only);
//   - unreachable destination → errors.As(err, *UnreachableError):
//     a traffic pattern addressed a node the fault plan stranded.
//
// Anything else (I/O, internal failures) is a plain error.

// Topology is a direct interconnection network as seen by the
// routing layer, the simulator and the model.
type Topology = topology.Topology

// NewStarGraph returns the n-star S_n (n! nodes) — the paper's
// topology.
func NewStarGraph(n int) (*stargraph.Graph, error) { return stargraph.New(n) }

// NewHypercube returns the binary m-cube Q_m.
func NewHypercube(m int) (*hypercube.Graph, error) { return hypercube.New(m) }

// NewTorus returns the k-ary n-cube (k even).
func NewTorus(k, n int) (*torus.Graph, error) { return torus.New(k, n) }

// NewMesh returns the k-ary n-mesh (simulator and routing only: its
// broken channel symmetry rules out the paper's model — see
// internal/mesh).
func NewMesh(k, n int) (*mesh.Graph, error) { return mesh.New(k, n) }

// RoutingKind selects one of the implemented deadlock-free adaptive
// wormhole routing algorithms.
type RoutingKind = routing.Kind

// The routing algorithms of the negative-hop family (see
// internal/routing for the eligibility rules and deadlock-freedom
// argument).
const (
	NHop        = routing.NHop
	Nbc         = routing.Nbc
	EnhancedNbc = routing.EnhancedNbc
)

// RoutingSpec is an algorithm resolved against a topology and a
// virtual-channel budget.
type RoutingSpec = routing.Spec

// NewRouting resolves kind on top with v virtual channels per
// physical channel.
func NewRouting(kind RoutingKind, top Topology, v int) (RoutingSpec, error) {
	return routing.New(kind, top, v)
}

// SelectionPolicy chooses among free eligible virtual channels in the
// simulator.
type SelectionPolicy = routing.Policy

// The selection policies (PreferClassA is the paper's behaviour).
const (
	PreferClassA      = routing.PreferClassA
	RandomAny         = routing.RandomAny
	LowestEscapeFirst = routing.LowestEscapeFirst
	FirstProfitable   = routing.FirstProfitable
)

// ErrInvalidConfig is the sentinel all configuration-validation
// failures match: errors.Is(err, ErrInvalidConfig) holds for every
// rejected parameter across topologies, routing, the model, the
// simulator, fault plans and the experiment harness.
var ErrInvalidConfig = cfgerr.ErrInvalid

// SimConfig configures one flit-level wormhole simulation; SimResult
// carries its measurements.
type (
	SimConfig = desim.Config
	SimResult = desim.Result
)

// Simulate runs the flit-level simulator (deterministic per config).
func Simulate(cfg SimConfig) (*SimResult, error) { return desim.Run(cfg) }

// Observability re-exports: an Observer attached via
// SimConfig.Observer receives lifecycle events (SimEvent) and a
// per-cycle tick without perturbing the run; Collector is the
// standard implementation in internal/obs (cycle-sampled gauges,
// bounded trace ring with JSONL export, per-hop blocking counters
// aligned with the model's P_block and w̄ terms).
type (
	Observer         = desim.Observer
	SimEvent         = desim.Event
	Collector        = obs.Collector
	CollectorOptions = obs.Options
	ObsSummary       = obs.Summary
)

// NewCollector returns a Collector ready to attach to
// SimConfig.Observer.
func NewCollector(opts CollectorOptions) *Collector { return obs.New(opts) }

// Fault-injection re-exports: a FaultPlan is a deterministic,
// seed-derived set of failed links, failed nodes and transient link
// flaps; a FaultedTopology is a base topology viewed through a plan
// (see internal/faults).
type (
	FaultPlan       = faults.Plan
	FaultOptions    = faults.Options
	FaultedTopology = faults.Faulted
	FaultLink       = faults.Link
	FaultFlap       = faults.Flap
)

// UnreachableError is the typed injection-time failure returned when a
// traffic pattern addresses a node a fault plan has stranded.
type UnreachableError = routing.UnreachableError

// NewFaultPlan draws a deterministic fault plan for top from seed.
// Unless opts.AllowDisconnected is set, plans that would disconnect
// the network are resampled.
func NewFaultPlan(top Topology, seed uint64, opts FaultOptions) (*FaultPlan, error) {
	return faults.NewPlan(top, seed, opts)
}

// ApplyFaults views top through plan, recomputing distances and
// diameter on the degraded graph.
func ApplyFaults(top Topology, plan *FaultPlan) (*FaultedTopology, error) {
	return faults.Apply(top, plan)
}

// SimulateWithFaults runs the simulator on cfg.Top degraded by plan:
// the routing spec is re-resolved against the faulted topology (the
// degraded diameter can exceed the pristine one, raising the escape-VC
// minimum), transient flaps drive channel availability inside the
// event loop, and the progress watchdog reports deadlock or starvation
// through SimResult.Aborted instead of an eternity at the drain limit.
func SimulateWithFaults(cfg SimConfig, plan *FaultPlan) (*SimResult, error) {
	ft, err := faults.Apply(cfg.Top, plan)
	if err != nil {
		return nil, err
	}
	spec, err := routing.New(cfg.Spec.Kind, ft, cfg.Spec.V())
	if err != nil {
		return nil, err
	}
	cfg.Top = ft
	cfg.Spec = spec
	return desim.Run(cfg)
}

// ModelConfig configures one analytical-model evaluation; ModelResult
// carries the prediction. PathStructure abstracts the minimal-path
// combinatorics of a topology.
type (
	ModelConfig   = model.Config
	ModelResult   = model.Result
	PathStructure = model.PathStructure
)

// ErrSaturated is returned by Predict beyond the model's saturation
// point.
var ErrSaturated = model.ErrSaturated

// NewStarPaths, NewCubePaths and NewTorusPaths build the per-topology
// path structures consumed by ModelConfig. Path structures are
// immutable and safe for concurrent use; NewStarPaths builds each S_n
// once and returns the shared instance on every later call.
func NewStarPaths(n int) (*model.StarPaths, error) { return model.NewStarPaths(n) }

// NewCubePaths builds the hypercube path structure.
func NewCubePaths(m int) (*model.CubePaths, error) { return model.NewCubePaths(m) }

// NewTorusPaths builds the k-ary n-cube path structure.
func NewTorusPaths(k, n int) (*model.TorusPaths, error) { return model.NewTorusPaths(k, n) }

// Predict evaluates the analytical latency model.
func Predict(cfg ModelConfig) (*ModelResult, error) { return model.Evaluate(cfg) }

// SaturationRate bisects for the largest per-node rate at which the
// model still converges — the predicted capacity of a configuration.
// An invalid base config is an error (matching ErrInvalidConfig)
// rather than a silent "saturates at lo" answer.
func SaturationRate(base ModelConfig, lo, hi float64) (float64, error) {
	return model.SaturationRate(base, lo, hi)
}

// PredictStar evaluates the model in the paper's setting: S_n with V
// virtual channels, M-flit messages at per-node rate λg under
// Enhanced-Nbc.
func PredictStar(n, v, msgLen int, rate float64) (*ModelResult, error) {
	return model.EvaluateStar(n, v, msgLen, rate, routing.EnhancedNbc, model.Window)
}

// Worst-case bound engine re-exports: where Predict answers "what
// latency will a message see on average", PredictBounds answers "what
// latency will a flow never exceed" — deterministic network-calculus
// delay bounds over the same Topology+routing abstractions (see
// internal/bounds for the curve model and composition rules).
type (
	BoundsConfig = bounds.Config
	BoundsResult = bounds.Result
	FlowBound    = bounds.FlowBound
)

// ErrUnboundable is returned by PredictBounds when no finite
// worst-case bound exists at the requested operating point: the
// injection or a channel is saturated, or the cyclic burstiness fixed
// point diverges. It is the bounds counterpart of ErrSaturated and
// strictly more conservative.
var ErrUnboundable = bounds.ErrUnboundable

// PredictBounds computes per-flow-class and worst-flow end-to-end
// delay bounds for adaptive wormhole routing on cfg.Top. Invalid
// configurations match ErrInvalidConfig; operating points with no
// finite bound match ErrUnboundable.
func PredictBounds(cfg BoundsConfig) (*BoundsResult, error) { return bounds.Evaluate(cfg) }

// BoundsCapacity bisects for the largest per-node rate in (lo, hi] at
// which PredictBounds still produces a finite bound — the engine's
// conservative capacity, the bounds counterpart of SaturationRate.
func BoundsCapacity(base BoundsConfig, lo, hi float64) (float64, error) {
	return bounds.Capacity(base, lo, hi)
}

// TrafficPattern maps sources to destinations; LengthDist draws
// message lengths.
type (
	TrafficPattern = traffic.Pattern
	LengthDist     = traffic.LengthDist
)

// The traffic building blocks.
type (
	UniformTraffic = traffic.Uniform
	HotspotTraffic = traffic.Hotspot
	FixedLen       = traffic.FixedLen
	BimodalLen     = traffic.BimodalLen
	UniformLen     = traffic.UniformLen
)

// Experiment harness re-exports: Panel/Series/Point latency curves,
// the Figure-1 regenerator and the throughput sweep. The config-struct
// entry points (Figure1Panel, ThroughputSweep) are the API; the old
// positional forms (Figure1, ThroughputCurve) were deprecated in PR 3
// and removed in PR 10.
type (
	Panel            = experiments.Panel
	SimOptions       = experiments.SimOptions
	ThroughputRow    = experiments.ThroughputRow
	Figure1Config    = experiments.Figure1Config
	ThroughputConfig = experiments.ThroughputConfig
)

// Figure1Panel regenerates one panel of the paper's Figure 1
// (cfg.Panel 'a', 'b' or 'c').
func Figure1Panel(cfg Figure1Config) (*Panel, error) {
	return experiments.Figure1Panel(cfg)
}

// ThroughputSweep sweeps offered load past saturation and reports
// accepted throughput.
func ThroughputSweep(cfg ThroughputConfig) ([]ThroughputRow, error) {
	return experiments.ThroughputSweep(cfg)
}
