package bounds

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"starperf/internal/cfgerr"
	"starperf/internal/faults"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

func s4(t *testing.T) topology.Topology {
	t.Helper()
	g, err := stargraph.New(4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func baseCfg(top topology.Topology) Config {
	return Config{Top: top, Kind: routing.EnhancedNbc, V: 6, MsgLen: 32, Rate: 0.001}
}

func TestEvaluateInvalidConfig(t *testing.T) {
	top := s4(t)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil topology", func(c *Config) { c.Top = nil }},
		{"zero msglen", func(c *Config) { c.MsgLen = 0 }},
		{"negative rate", func(c *Config) { c.Rate = -1 }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"negative bufcap", func(c *Config) { c.BufCap = -1 }},
		{"negative linkbw", func(c *Config) { c.LinkBW = -2 }},
		{"vc budget below minimum", func(c *Config) { c.V = 1 }},
	}
	for _, tc := range cases {
		cfg := baseCfg(top)
		tc.mut(&cfg)
		if _, err := Evaluate(cfg); !errors.Is(err, cfgerr.ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestEvaluateTooLarge(t *testing.T) {
	g, err := stargraph.New(7) // 5040 nodes > MaxNodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(baseCfg(g)); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("oversized topology: err = %v, want ErrInvalidConfig", err)
	}
}

func TestEvaluateBasic(t *testing.T) {
	res, err := Evaluate(baseCfg(s4(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstCase <= 0 || math.IsInf(res.WorstCase, 0) || math.IsNaN(res.WorstCase) {
		t.Fatalf("worst case %v not positive finite", res.WorstCase)
	}
	if res.Flows != 24*23 {
		t.Fatalf("flows %d, want %d live pairs", res.Flows, 24*23)
	}
	if res.Channels != 24*3 {
		t.Fatalf("channels %d, want all %d live", res.Channels, 24*3)
	}
	if res.Utilization <= 0 || res.Utilization >= 1 {
		t.Fatalf("utilization %v outside (0,1)", res.Utilization)
	}
	// The star's channel dependency graph is cyclic under uniform
	// traffic.
	if res.Feedforward {
		t.Fatal("S4 under uniform traffic reported feedforward")
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations %d", res.Iterations)
	}
	// Per-class bounds: ascending hop counts, strictly increasing
	// bounds, class populations summing to the flow count, worst case
	// = deepest class.
	total := 0
	prev := 0.0
	prevH := 0
	for _, fb := range res.Classes {
		if fb.Hops <= prevH {
			t.Fatalf("classes not ascending: %+v", res.Classes)
		}
		if fb.Bound <= prev {
			t.Fatalf("bound not increasing with hops: %+v", res.Classes)
		}
		prevH, prev = fb.Hops, fb.Bound
		total += fb.Flows
	}
	if total != res.Flows {
		t.Fatalf("class flows %d != total %d", total, res.Flows)
	}
	if got := res.Classes[len(res.Classes)-1].Bound; got != res.WorstCase {
		t.Fatalf("worst case %v != deepest class %v", res.WorstCase, got)
	}
	// A bound must dominate the contention-free latency M + h.
	if res.WorstCase < 32+4 {
		t.Fatalf("worst case %v below the contention-free floor", res.WorstCase)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	cfg := baseCfg(s4(t))
	a, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two evaluations differ:\n%+v\n%+v", a, b)
	}
}

// TestMonotoneInLoad pins the contract the validation matrix relies
// on: bounds are monotone non-decreasing in the injection rate.
func TestMonotoneInLoad(t *testing.T) {
	top := s4(t)
	cap, err := Capacity(baseCfg(top), 1e-6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := baseCfg(top)
		cfg.Rate = frac * cap
		res, err := Evaluate(cfg)
		if err != nil {
			t.Fatalf("rate %v (%.0f%% of capacity): %v", cfg.Rate, frac*100, err)
		}
		if res.WorstCase < prev {
			t.Fatalf("bound decreased with load: %v after %v", res.WorstCase, prev)
		}
		prev = res.WorstCase
	}
}

func TestUnboundableAtSaturation(t *testing.T) {
	top := s4(t)
	cfg := baseCfg(top)
	cap, err := Capacity(cfg, 1e-6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cap <= 0 || cap >= 1.0/32 {
		t.Fatalf("capacity %v outside (0, injection limit)", cap)
	}
	// Above the engine's capacity: typed ErrUnboundable, never a
	// number.
	cfg.Rate = cap * 1.1
	if _, err := Evaluate(cfg); !errors.Is(err, ErrUnboundable) {
		t.Fatalf("above capacity: err = %v, want ErrUnboundable", err)
	}
	// Injection saturation is unboundable outright.
	cfg.Rate = 1.0 / 32
	if _, err := Evaluate(cfg); !errors.Is(err, ErrUnboundable) {
		t.Fatalf("injection saturation: err = %v, want ErrUnboundable", err)
	}
}

// TestFeedforwardLine: minimal routes on a 1-D mesh never turn
// around, so the channel dependency graph is a pair of disjoint
// forward/backward chains — acyclic, solved by the exact single pass.
func TestFeedforwardLine(t *testing.T) {
	g, err := mesh.New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Top: g, Kind: routing.NHop, V: 8, MsgLen: 16, Rate: 0.002}
	res, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feedforward {
		t.Fatal("1-D mesh dependency graph reported cyclic")
	}
	if res.Iterations != 1 {
		t.Fatalf("feedforward composition took %d passes", res.Iterations)
	}
	if res.WorstCase <= 0 || math.IsInf(res.WorstCase, 0) {
		t.Fatalf("worst case %v", res.WorstCase)
	}
}

func TestHypercubeCyclic(t *testing.T) {
	g, err := hypercube.New(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(Config{Top: g, Kind: routing.EnhancedNbc, V: 4, MsgLen: 16, Rate: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feedforward {
		t.Fatal("Q4 under uniform traffic reported feedforward")
	}
	if res.WorstCase <= 0 {
		t.Fatalf("worst case %v", res.WorstCase)
	}
}

// TestFaultedTopology: the engine analyses a degraded topology
// through the same Topology interface, skipping stranded pairs and
// dead channels, and the degraded bound dominates the pristine one at
// equal load (fewer channels carry the same traffic).
func TestFaultedTopology(t *testing.T) {
	top := s4(t)
	plan, err := faults.NewPlan(top, 3, faults.Options{FailLinks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := faults.Apply(top, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(top)
	cfg.Rate = 0.002
	pristine, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Top = ft
	// The degraded diameter can exceed the pristine one, raising the
	// escape-VC minimum.
	if _, err := routing.New(fcfg.Kind, ft, fcfg.V); err != nil {
		fcfg.V = ft.Diameter() + 2
	}
	degraded, err := Evaluate(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Channels >= pristine.Channels {
		t.Fatalf("degraded channels %d not below pristine %d", degraded.Channels, pristine.Channels)
	}
	if degraded.WorstCase < pristine.WorstCase {
		t.Fatalf("degraded bound %v below pristine %v", degraded.WorstCase, pristine.WorstCase)
	}
}

func TestCapacityBracketErrors(t *testing.T) {
	top := s4(t)
	if _, err := Capacity(baseCfg(top), -1, 1); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("bad bracket: %v", err)
	}
	// lo already unboundable → error, not "capacity is lo".
	if _, err := Capacity(baseCfg(top), 0.5, 1.0); !errors.Is(err, ErrUnboundable) {
		t.Fatalf("unboundable floor: %v", err)
	}
	// invalid base config surfaces as ErrInvalidConfig.
	bad := baseCfg(top)
	bad.MsgLen = -1
	if _, err := Capacity(bad, 1e-6, 1.0); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("invalid base: %v", err)
	}
}

// TestLoadEnumeration pins the per-channel load invariants on the
// pristine star: by node symmetry every channel carries the same
// rate, and the aggregate matches the paper's eq. 3
// λc = λg·d̄/Degree.
func TestLoadEnumeration(t *testing.T) {
	top := s4(t)
	rate := 0.004
	cl := enumerateLoad(top, rate)
	if cl.flows != 24*23 {
		t.Fatalf("flows %d", cl.flows)
	}
	want := rate * top.AvgDistance() / 3
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range cl.rate {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo > 1e-12 {
		t.Fatalf("asymmetric channel rates on a symmetric topology: [%v, %v]", lo, hi)
	}
	if math.Abs(lo-want) > 1e-12 {
		t.Fatalf("channel rate %v, eq. 3 gives %v", lo, want)
	}
	// Mass conservation: total channel mass = Σ over pairs of path
	// length (each flow deposits exactly one unit of mass per hop
	// level).
	var totalMass float64
	for _, m := range cl.mass {
		totalMass += m
	}
	var wantMass float64
	for h, cnt := range cl.classFlows {
		wantMass += float64(h * cnt)
	}
	if math.Abs(totalMass-wantMass) > 1e-6 {
		t.Fatalf("mass %v, want %v", totalMass, wantMass)
	}
	// Hop positions reach the diameter and never exceed it.
	maxPos := 0
	for _, p := range cl.pos {
		if p > maxPos {
			maxPos = p
		}
	}
	if maxPos != top.Diameter() {
		t.Fatalf("deepest hop position %d, diameter %d", maxPos, top.Diameter())
	}
}
