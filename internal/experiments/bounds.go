package experiments

import (
	"errors"
	"fmt"
	"io"

	"starperf/internal/bounds"
	"starperf/internal/cfgerr"
	"starperf/internal/desim"
	"starperf/internal/routing"
)

// BoundRow is one operating point of the bound-vs-observation figure:
// the worst-case bound the network-calculus engine certifies, the
// mean latency the analytical model predicts, and the simulator's
// mean, p99.9 and maximum. The figure's whole point is the ordering
// sim mean ≤ sim p99.9 ≤ sim max ≤ bound on every row below the
// engine's capacity.
type BoundRow struct {
	Rate           float64
	Bound          float64
	ModelMean      float64
	ModelSaturated bool
	SimMean        float64
	SimP999        int
	SimMax         float64
}

// BoundsFigureConfig parameterises BoundsFigure.
type BoundsFigureConfig struct {
	// N is the star size (default 4 — S5 flow enumeration is heavy
	// for a figure regenerated in CI).
	N int
	// V is the virtual-channel count (default 6) and MsgLen the
	// message length in flits (default 32).
	V, MsgLen int
	// Points is the number of operating points, spread evenly up to
	// 90% of the engine's capacity (default 6).
	Points int
	// Sim tunes the simulation side (windows, seed, buffer depth).
	Sim SimOptions
}

// BoundsFigure sweeps offered load below the bound engine's capacity
// on S_n under Enhanced-Nbc and reports, per rate: the worst-case
// delay bound, the model's mean prediction, and the simulated
// mean/p99.9/max. Rates above the model's saturation point mark
// ModelSaturated instead of failing — the bound engine's capacity is
// more conservative than the model's, but the two are different
// fixed points and the figure should survive either ordering.
func BoundsFigure(cfg BoundsFigureConfig) ([]BoundRow, error) {
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.V == 0 {
		cfg.V = 6
	}
	if cfg.MsgLen == 0 {
		cfg.MsgLen = 32
	}
	if cfg.Points == 0 {
		cfg.Points = 6
	}
	if cfg.Points < 1 || cfg.Points > 64 {
		return nil, cfgerr.Errorf("experiments: bounds figure points %d outside 1..64", cfg.Points)
	}
	opts := cfg.Sim.withDefaults()
	mbase, top, err := starModel(cfg.N)
	if err != nil {
		return nil, err
	}
	mbase.Kind, mbase.V, mbase.MsgLen = routing.EnhancedNbc, cfg.V, cfg.MsgLen
	spec, err := routing.New(routing.EnhancedNbc, top, cfg.V)
	if err != nil {
		return nil, err
	}
	base := bounds.Config{
		Top: top, Kind: routing.EnhancedNbc,
		V: cfg.V, MsgLen: cfg.MsgLen, BufCap: opts.BufCap,
	}
	capRate, err := bounds.Capacity(base, 1e-7, 1.0)
	if err != nil {
		return nil, err
	}
	rates := ratesUpTo(0.9*capRate, cfg.Points)
	rows := make([]BoundRow, len(rates))
	cfgs := make([]desim.Config, len(rates))
	for i, rate := range rates {
		bcfg := base
		bcfg.Rate = rate
		bres, err := bounds.Evaluate(bcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: bound at rate %g: %w", rate, err)
		}
		mean, sat, err := modelAt(mbase, rate)
		if err != nil {
			return nil, err
		}
		if sat {
			mean = 0 // the figure's CSV reads 0, not NaN, past saturation
		}
		rows[i] = BoundRow{Rate: rate, Bound: bres.WorstCase, ModelMean: mean, ModelSaturated: sat}
		cfgs[i] = opts.config(top, spec, rate, cfg.MsgLen, opts.Seeds[0])
	}
	results, errs := simulate(cfgs, opts)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, sres := range results {
		rows[i].SimMean = sres.Latency.Mean()
		rows[i].SimP999 = sres.LatencyHist.Quantile(0.999)
		rows[i].SimMax = sres.Latency.Max()
	}
	return rows, nil
}

// RenderBounds writes the figure as a table.
func RenderBounds(w io.Writer, rows []BoundRow) {
	fmt.Fprintf(w, "%-10s %-12s %-12s %-10s %-10s %-12s\n",
		"rate", "bound", "model_mean", "sim_mean", "sim_p999", "sim_max")
	for _, r := range rows {
		mm := fmt.Sprintf("%.2f", r.ModelMean)
		if r.ModelSaturated {
			mm = "saturated"
		}
		fmt.Fprintf(w, "%-10.6f %-12.1f %-12s %-10.2f %-10d %-12.0f\n",
			r.Rate, r.Bound, mm, r.SimMean, r.SimP999, r.SimMax)
	}
}

// RenderBoundsCSV writes the figure as CSV:
// rate,bound,model_mean,model_saturated,sim_mean,sim_p999,sim_max.
func RenderBoundsCSV(w io.Writer, rows []BoundRow) {
	fmt.Fprintln(w, "rate,bound,model_mean,model_saturated,sim_mean,sim_p999,sim_max")
	for _, r := range rows {
		fmt.Fprintf(w, "%g,%g,%g,%t,%g,%d,%g\n",
			r.Rate, r.Bound, r.ModelMean, r.ModelSaturated, r.SimMean, r.SimP999, r.SimMax)
	}
}
