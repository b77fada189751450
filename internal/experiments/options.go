package experiments

import (
	"errors"
	"fmt"

	"starperf/internal/cfgerr"
	"starperf/internal/desim"
	"starperf/internal/routing"
	"starperf/internal/topology"
)

// The config-struct entry points of the package. The structs match
// how Simulate/Predict already take their parameters and leave room
// to grow (observability, new knobs) without another signature
// break. Parallelism is Sim.Workers, as everywhere in the package.

// Figure1Config parameterises Figure1Panel.
type Figure1Config struct {
	// Panel selects the paper's Figure 1 panel: 'a' (V=6), 'b' (V=9)
	// or 'c' (V=12).
	Panel byte
	// Points is the number of samples per curve (default 10).
	Points int
	// Sim tunes the simulation side, including Sim.Workers (any value
	// produces a byte-identical panel) and Sim.Observe for per-point
	// metrics sidecars.
	Sim SimOptions
}

// Figure1Panel reproduces one panel of the paper's Figure 1: S5
// latency versus traffic generation rate for the panel's
// virtual-channel count, with one model and one simulation series per
// message length M ∈ {32, 64}. The sweep spans the paper's x-axis
// (0..0.015 for a and b, 0..0.02 for c).
func Figure1Panel(cfg Figure1Config) (*Panel, error) {
	var v int
	maxRate := 0.015
	switch cfg.Panel {
	case 'a':
		v = 6
	case 'b':
		v = 9
	case 'c':
		v = 12
		maxRate = 0.02
	default:
		return nil, cfgerr.Errorf("experiments: unknown Figure 1 panel %q", cfg.Panel)
	}
	p, err := StarPanel(5, v, []int{32, 64}, maxRate, cfg.Points, cfg.Sim)
	if err != nil {
		return nil, err
	}
	p.Title = fmt.Sprintf("Figure 1(%c): 5-star, V=%d", cfg.Panel, v)
	return p, nil
}

// ThroughputConfig parameterises ThroughputSweep.
type ThroughputConfig struct {
	// Top is the network topology (required) and Kind the routing
	// algorithm run on it with V virtual channels.
	Top  topology.Topology
	Kind routing.Kind
	V    int
	// MsgLen is the message length in flits.
	MsgLen int
	// Points is the number of operating points (default 10), spaced
	// evenly from MaxRate/Points up to MaxRate (required positive).
	Points  int
	MaxRate float64
	// Sim tunes the simulation side; any Sim.Workers produces
	// identical rows.
	Sim SimOptions
}

// ThroughputSweep sweeps offered load past saturation and records
// accepted throughput — the standard companion plot to latency curves
// (the plateau height is the network's saturation throughput). Rows
// are indexed by operating point, so the output is independent of
// scheduling order.
func ThroughputSweep(cfg ThroughputConfig) ([]ThroughputRow, error) {
	if cfg.Top == nil {
		return nil, cfgerr.New("experiments: ThroughputConfig.Top is required")
	}
	if cfg.MaxRate <= 0 {
		return nil, cfgerr.Errorf("experiments: ThroughputConfig.MaxRate must be positive, got %g", cfg.MaxRate)
	}
	if cfg.Points <= 0 {
		cfg.Points = 10
	}
	opts := cfg.Sim.withDefaults()
	spec, err := routing.New(cfg.Kind, cfg.Top, cfg.V)
	if err != nil {
		return nil, err
	}
	rates := ratesUpTo(cfg.MaxRate, cfg.Points)
	cfgs := make([]desim.Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = opts.config(cfg.Top, spec, rate, cfg.MsgLen, opts.Seeds[0]*7919+uint64(i))
	}
	results, errs := simulate(cfgs, opts)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rows := make([]ThroughputRow, len(rates))
	for i, res := range results {
		rows[i] = ThroughputRow{
			Offered: rates[i],
			Accepted: float64(res.DeliveredInWindow) /
				float64(opts.Measure) / float64(cfg.Top.N()),
			Latency:   res.Latency.Mean(),
			Saturated: res.Saturated(),
		}
	}
	return rows, nil
}
