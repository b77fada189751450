package experiments

import (
	"errors"

	"starperf/internal/desim"
	"starperf/internal/model"
	"starperf/internal/routing"
)

// SwitchingComparison (X7) contrasts wormhole switching with virtual
// cut-through at equal V and M on S5, by both simulator and model:
// wormhole's chains of stalled channels saturate well before VCT's
// whole-message buffers, which push the knee towards the physical
// channel-capacity ceiling.
func SwitchingComparison(v, msgLen, points int, opts SimOptions) (*Panel, error) {
	if points <= 0 {
		points = 8
	}
	opts = opts.withDefaults()
	base, g, err := starModel(5)
	if err != nil {
		return nil, err
	}
	spec, err := routing.New(routing.EnhancedNbc, g, v)
	if err != nil {
		return nil, err
	}
	// sweep to 90% of the physical ceiling so VCT's knee is visible
	maxRate := 0.9 * float64(g.Degree()) / (g.AvgDistance() * float64(msgLen))

	p := &Panel{
		Title:  "X7: wormhole vs virtual cut-through (S5, Enhanced-Nbc)",
		XLabel: "traffic generation rate (messages/node/cycle)",
	}
	var cfgs []desim.Config
	for _, mode := range []model.SwitchingMode{model.Wormhole, model.CutThrough} {
		s := Series{Name: mode.String(), V: v, MsgLen: msgLen, Kind: routing.EnhancedNbc}
		for i, r := range ratesUpTo(maxRate, points) {
			s.Points = append(s.Points, Point{Rate: r})
			cfgs = append(cfgs, desim.Config{
				Top: g, Spec: spec, Rate: r, MsgLen: msgLen,
				CutThrough:   mode == model.CutThrough,
				Seed:         opts.Seeds[0]*31 + uint64(i),
				WarmupCycles: opts.Warmup, MeasureCycles: opts.Measure,
				DrainCycles: opts.Drain,
			})
		}
		mbase := base
		mbase.Switching = mode
		if err := fillModel(&s, mbase); err != nil {
			return nil, err
		}
		p.Series = append(p.Series, s)
	}
	results, errs := simulate(cfgs, opts)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for si := range p.Series {
		for i := range p.Series[si].Points {
			res := results[si*points+i]
			p.Series[si].Points[i].Sim = res.Latency.Mean()
			p.Series[si].Points[i].SimSaturated = res.Saturated()
		}
	}
	return p, nil
}
