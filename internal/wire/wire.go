// Package wire is the starperfd JSON schema, declared once: the
// request and result bodies of every route, the envelopes around
// them and the X-Starperf-* headers. The server (internal/server),
// the public client and the soak harness all speak these types, so
// the two ends of a request cannot drift apart. The package imports
// only the standard library; defaults, validation and computation
// belong to the server.
package wire

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

// PredictRequest is POST /v1/predict: one analytical-model
// evaluation (paper eq. 16 mean latency), answered synchronously.
type PredictRequest struct {
	Topo    TopoSpec `json:"topo"`
	Routing string   `json:"routing,omitempty"`
	V       int      `json:"v"`
	MsgLen  int      `json:"msg_len"`
	Rate    float64  `json:"rate"`
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
// evaluation (the network-calculus engine), answered synchronously.
type BoundsRequest struct {
	Topo    TopoSpec `json:"topo"`
	Routing string   `json:"routing,omitempty"`
	V       int      `json:"v"`
	MsgLen  int      `json:"msg_len"`
	Rate    float64  `json:"rate"`
	BufCap  int      `json:"buf_cap,omitempty"`
	LinkBW  float64  `json:"link_bw,omitempty"`
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
// simulation, answered through the job API.
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
// (model and simulation curves), answered through the job API.
type SweepRequest struct {
	// Panel is "a", "b" or "c".
	Panel  string   `json:"panel"`
	Points int      `json:"points,omitempty"`
	Seeds  []uint64 `json:"seeds,omitempty"`
	// Warmup and Measure are the per-run cycle windows.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// Workers bounds how many of the sweep's simulations run at once:
	// 0..64, where 0 selects 1 (serial). Any value produces the same
	// panel; the server rejects larger values as invalid_config.
	Workers int `json:"workers,omitempty"`
}

// SweepResult is the sweep job's result body: the Figure 1 panel in a
// JSON-safe shape (saturated model points and fully failed simulation
// points carry null instead of NaN).
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
