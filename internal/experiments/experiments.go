// Package experiments defines the reproducible experiments of the
// repository: the three panels of the paper's Figure 1 (model vs
// simulation latency curves for S5 with V = 6, 9, 12 and M = 32, 64),
// the broader validation grid the paper's §5 alludes to, the
// star-vs-hypercube comparison of the paper's future-work section,
// and the ablations called out in DESIGN.md. Every simulation runs
// through one bounded fan-out (simulate) and every model curve
// through one filler (fillModel/modelAt); every run is deterministic
// given its seed list.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"starperf/internal/desim"
	"starperf/internal/model"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/stats"
	"starperf/internal/topology"
	"starperf/internal/traffic"
)

// SimOptions tunes the simulation side of an experiment.
type SimOptions struct {
	// Warmup, Measure and Drain are the per-run cycle windows;
	// zero values select 8000/30000/120000.
	Warmup, Measure, Drain int64
	// Seeds lists one seed per replication (default: {1, 2, 3}).
	Seeds []uint64
	// Policy is the VC selection policy (default PreferClassA).
	Policy routing.Policy
	// BufCap is the per-VC buffer depth (default 2).
	BufCap int
	// Workers bounds simulation parallelism (default NumCPU).
	Workers int
	// MaxMsgAge arms the simulator's over-age watchdog per run (see
	// desim.Config.MaxMsgAge); aborted runs get one retry at an
	// escalated drain window, then mark the point failed.
	MaxMsgAge int64
	// Observe, when non-nil, attaches an obs.Collector to the
	// first-seed replication of every point and stores its Summary in
	// Point.Obs — the per-point metrics sidecar
	// (WriteMetricsSidecarCSV/JSON). Observation is passive, so the
	// latency statistics are unchanged by enabling it.
	Observe *obs.Options
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Warmup == 0 {
		o.Warmup = 8000
	}
	if o.Measure == 0 {
		o.Measure = 30000
	}
	if o.Drain == 0 {
		o.Drain = 120000
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// config is the one place a simulation run's desim.Config is built:
// every experiment point gets the options' cycle windows, selection
// policy, buffer depth and watchdog. Callers set only what varies per
// run — pattern, switching mode, observer. o must have its defaults
// applied.
func (o SimOptions) config(top topology.Topology, spec routing.Spec, rate float64, msgLen int, seed uint64) desim.Config {
	return desim.Config{
		Top: top, Spec: spec, Policy: o.Policy,
		Rate: rate, MsgLen: msgLen, BufCap: o.BufCap, Seed: seed,
		WarmupCycles: o.Warmup, MeasureCycles: o.Measure, DrainCycles: o.Drain,
		MaxMsgAge: o.MaxMsgAge,
	}
}

// Point is one operating point of a latency curve.
type Point struct {
	// Rate is λg in messages/node/cycle.
	Rate float64
	// Model is the model-predicted mean latency; NaN beyond the
	// model's saturation point (ModelSaturated true).
	Model          float64
	ModelSaturated bool
	// Sim is the simulated mean latency over replications, SimHW the
	// half-width of its ~95% confidence interval over seeds, and
	// SimSaturated whether any replication failed to drain.
	Sim          float64
	SimHW        float64
	SimSaturated bool
	// Failed marks a point at least one of whose replications
	// produced no usable result — a panic, or a watchdog abort that
	// survived the escalated-drain retry — with Err carrying the first
	// failure. Sim aggregates the surviving replications (NaN when
	// none survived); the panel renders the point as failed instead of
	// the whole figure failing.
	Failed bool
	Err    string
	// Obs is the observer summary of the point's first-seed
	// replication; nil unless SimOptions.Observe was set.
	Obs *obs.Summary
}

// Series is one curve (fixed V, M, algorithm) over a rate sweep.
type Series struct {
	Name   string
	V      int
	MsgLen int
	Kind   routing.Kind
	Points []Point
}

// Panel is a titled group of series, matching one figure panel.
type Panel struct {
	Title  string
	XLabel string
	Series []Series
}

// runSweep fills the Sim fields of every point of every series by
// running all (point × seed) simulations through simulate. Seeds are
// pure functions of position, so the output is byte-identical for any
// worker count.
func runSweep(top topology.Topology, series []*Series, opts SimOptions, pattern traffic.Pattern) error {
	opts = opts.withDefaults()
	var cfgs []desim.Config
	var cols []*obs.Collector // parallel to cfgs; nil when unobserved
	for si, s := range series {
		spec, err := routing.New(s.Kind, top, s.V)
		if err != nil {
			return err
		}
		for pi, p := range s.Points {
			for ki, seed := range opts.Seeds {
				cfg := opts.config(top, spec, p.Rate, s.MsgLen, seed*1_000_003+uint64(si*131+pi*17+1))
				cfg.Pattern = pattern
				var col *obs.Collector
				if opts.Observe != nil && ki == 0 {
					col = obs.New(*opts.Observe)
					// assigned only when set: a nil *obs.Collector
					// stored in the field would make the interface non-nil
					cfg.Observer = col
				}
				cfgs = append(cfgs, cfg)
				cols = append(cols, col)
			}
		}
	}
	results, errs := simulate(cfgs, opts)

	// aggregate per point over its seeds, which are adjacent in cfgs;
	// failed replications mark the point instead of failing the sweep
	i := 0
	for _, s := range series {
		for pi := range s.Points {
			p := &s.Points[pi]
			var st stats.Stream
			for ki := range opts.Seeds {
				res, err, col := results[i], errs[i], cols[i]
				i++
				if err != nil {
					if !p.Failed {
						p.Failed = true
						p.Err = fmt.Sprintf("seed %d: %v", ki, err)
					}
					continue
				}
				st.Add(res.Latency.Mean())
				p.SimSaturated = p.SimSaturated || res.Saturated()
				if col != nil {
					sum := col.Summary()
					p.Obs = &sum
				}
			}
			p.Sim = st.Mean()
			if st.N() == 0 {
				p.Sim = math.NaN()
			}
			if st.N() >= 2 {
				p.SimHW = 1.96 * st.StdDev() / math.Sqrt(float64(st.N()))
			}
		}
	}
	return nil
}

// simulate is the harness's one fan-out: it runs every config through
// runPoint with at most opts.Workers runs in flight. Results and
// errors are index-addressed to cfgs, so callers whose seeds are pure
// functions of position get output independent of the worker count.
func simulate(cfgs []desim.Config, opts SimOptions) ([]*desim.Result, []error) {
	sem := make(chan struct{}, opts.withDefaults().Workers)
	results := make([]*desim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			results[i], errs[i] = runPoint(cfgs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

// drainEscalation multiplies DrainCycles on the single retry granted
// to a run the watchdog aborted — the degraded-point second chance
// before the point is marked failed.
const drainEscalation = 4

// runPoint executes one (point, seed) simulation with the harness's
// resilience policy: panics become errors instead of killing the
// sweep, and a watchdog abort earns one retry at an escalated drain
// window. Every run is bounded by its drain window.
func runPoint(cfg desim.Config) (*desim.Result, error) {
	res, err := runRecovered(cfg)
	if err == nil && !res.Aborted {
		return res, nil
	}
	retry := cfg
	retry.DrainCycles = drainEscalation * cfg.DrainCycles
	res2, err2 := runRecovered(retry)
	switch {
	case err2 == nil && !res2.Aborted:
		return res2, nil
	case err != nil:
		return nil, err
	case err2 != nil:
		return nil, fmt.Errorf("aborted at cycle %d (%s); retry at %d× drain: %w",
			res.StallCycle, res.AbortReason, drainEscalation, err2)
	default:
		return nil, fmt.Errorf("aborted at cycle %d (%s); retry at %d× drain aborted too (%s)",
			res.StallCycle, res.AbortReason, drainEscalation, res2.AbortReason)
	}
}

// runRecovered is desim.Run with panics converted to errors.
func runRecovered(cfg desim.Config) (res *desim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: simulation panicked: %v", r)
		}
	}()
	return desim.Run(cfg)
}

// starModel is the base model configuration of S_n (paths and
// topology) and the graph the simulations run on; callers set the
// routing, V, M and rate fields on the configuration.
func starModel(n int) (model.Config, *stargraph.Graph, error) {
	sp, err := model.NewStarPaths(n)
	if err != nil {
		return model.Config{}, nil, err
	}
	g, err := stargraph.New(n)
	if err != nil {
		return model.Config{}, nil, err
	}
	return model.Config{Paths: sp, Top: g}, g, nil
}

// fillModel fills the Model fields of every point of s, evaluating
// base with the series' algorithm, V and M at each point's rate.
func fillModel(s *Series, base model.Config) error {
	base.Kind, base.V, base.MsgLen = s.Kind, s.V, s.MsgLen
	for i := range s.Points {
		p := &s.Points[i]
		var err error
		if p.Model, p.ModelSaturated, err = modelAt(base, p.Rate); err != nil {
			return err
		}
	}
	return nil
}

// modelAt is the harness's one model evaluation: the latency base
// predicts at rate, or NaN and saturated past the model's saturation
// point. Any other error — an invalid configuration — is returned
// rather than drawn as saturation.
func modelAt(base model.Config, rate float64) (latency float64, saturated bool, err error) {
	base.Rate = rate
	r, err := model.Evaluate(base)
	switch {
	case err == nil:
		return r.Latency, false, nil
	case errors.Is(err, model.ErrSaturated):
		return math.NaN(), true, nil
	default:
		return 0, false, err
	}
}

// ratesUpTo returns count evenly spaced rates from step to max.
func ratesUpTo(max float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = max * float64(i+1) / float64(count)
	}
	return out
}

// StarPanel generalises Figure 1 to any star size: model and
// simulation latency curves for S_n with V virtual channels, one
// series per message length, sweeping 0..maxRate (0 chooses 60% of
// the physical capacity ceiling for the longest message).
func StarPanel(n, v int, msgLens []int, maxRate float64, points int, opts SimOptions) (*Panel, error) {
	if points <= 0 {
		points = 10
	}
	if len(msgLens) == 0 {
		msgLens = []int{32}
	}
	base, g, err := starModel(n)
	if err != nil {
		return nil, err
	}
	if maxRate <= 0 {
		longest := msgLens[0]
		for _, m := range msgLens {
			if m > longest {
				longest = m
			}
		}
		maxRate = 0.6 * float64(g.Degree()) / (g.AvgDistance() * float64(longest))
	}
	p := &Panel{
		Title:  fmt.Sprintf("%d-star, V=%d", n, v),
		XLabel: "traffic generation rate (messages/node/cycle)",
	}
	for _, m := range msgLens {
		s := Series{
			Name: fmt.Sprintf("M=%d", m), V: v, MsgLen: m, Kind: routing.EnhancedNbc,
		}
		for _, r := range ratesUpTo(maxRate, points) {
			s.Points = append(s.Points, Point{Rate: r})
		}
		p.Series = append(p.Series, s)
	}
	refs := make([]*Series, len(p.Series))
	for i := range p.Series {
		refs[i] = &p.Series[i]
	}
	if err := runSweep(g, refs, opts, nil); err != nil {
		return nil, err
	}
	for _, s := range refs {
		if err := fillModel(s, base); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ValidationGrid covers the paper's §5 claim of "numerous validation
// experiments ... several combinations of network sizes, message
// lengths and numbers of virtual channels": a grid over S4/S5/S6,
// M ∈ {16, 32, 64}, V ∈ {5, 6, 9}, each evaluated at a moderate and
// a heavy operating point.
func ValidationGrid(opts SimOptions) ([]GridRow, error) {
	var rows []GridRow
	for _, n := range []int{4, 5, 6} {
		base, g, err := starModel(n)
		if err != nil {
			return nil, err
		}
		// scale operating points to each network's capacity
		cap5 := float64(g.Degree()) / (g.AvgDistance() * 32)
		for _, m := range []int{16, 32, 64} {
			for _, v := range []int{5, 6, 9} {
				if _, err := routing.New(routing.EnhancedNbc, g, v); err != nil {
					continue // V below this network's minimum
				}
				for _, frac := range []float64{0.15, 0.3} {
					rate := cap5 * frac * 32 / float64(m)
					s := Series{Kind: routing.EnhancedNbc, V: v, MsgLen: m,
						Points: []Point{{Rate: rate}}}
					if err := runSweep(g, []*Series{&s}, opts, nil); err != nil {
						return nil, err
					}
					if err := fillModel(&s, base); err != nil {
						return nil, err
					}
					pt := s.Points[0]
					row := GridRow{N: n, V: v, MsgLen: m, Rate: rate,
						Model: pt.Model, Sim: pt.Sim, SimSaturated: pt.SimSaturated}
					if !math.IsNaN(row.Model) && row.Sim > 0 {
						row.ErrPct = 100 * (row.Model - row.Sim) / row.Sim
					} else {
						row.ErrPct = math.NaN()
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// GridRow is one validation-grid measurement.
type GridRow struct {
	N, V, MsgLen int
	Rate         float64
	Model, Sim   float64
	ErrPct       float64
	SimSaturated bool
}
