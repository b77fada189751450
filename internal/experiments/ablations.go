package experiments

import (
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// AblationMixture (A1) quantifies the sensitivity of the model to the
// placement of the class mixture in eq. 8: the paper raises the
// class-weighted per-channel blocking probability to the power f
// (inside), the corrected form averages the per-class blocking
// probabilities after the power (outside), and the window form drops
// the class structure entirely (it is exact for the implemented
// algorithm). Returns one row per rate with the three predictions.
func AblationMixture(v, msgLen, points int) ([]MixtureRow, error) {
	base, _, err := starModel(5)
	if err != nil {
		return nil, err
	}
	base.Kind, base.V, base.MsgLen = routing.EnhancedNbc, v, msgLen
	var rows []MixtureRow
	for _, rate := range ratesUpTo(0.015, points) {
		row := MixtureRow{Rate: rate}
		for i, b := range []model.BlockingModel{
			model.Window, model.PaperInsidePower, model.PaperOutsidePower,
		} {
			c := base
			c.Blocking = b
			if row.Latency[i], _, err = modelAt(c, rate); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MixtureRow holds the three blocking-model predictions at one rate,
// ordered Window, PaperInsidePower, PaperOutsidePower.
type MixtureRow struct {
	Rate    float64
	Latency [3]float64
}

// AblationSelection (A2) compares the virtual-channel selection
// policies in simulation on the Figure-1a workload: prefer-class-a
// (the policy the model assumes), random-any, and the deliberately
// poor lowest-escape-first.
func AblationSelection(v, msgLen, points int, opts SimOptions) (*Panel, error) {
	g := stargraph.MustNew(5)
	p := &Panel{
		Title:  "Ablation A2: VC selection policy (S5, Enhanced-Nbc)",
		XLabel: "traffic generation rate (messages/node/cycle)",
	}
	for _, pol := range []routing.Policy{
		routing.PreferClassA, routing.RandomAny, routing.LowestEscapeFirst,
	} {
		s := Series{Name: pol.String(), V: v, MsgLen: msgLen, Kind: routing.EnhancedNbc}
		for _, r := range ratesUpTo(0.015, points) {
			s.Points = append(s.Points, Point{Rate: r})
		}
		o := opts
		o.Policy = pol
		if err := runSweep(g, []*Series{&s}, o, nil); err != nil {
			return nil, err
		}
		p.Series = append(p.Series, s)
	}
	return p, nil
}

// AblationAlgorithms (A3) reproduces the motivation for the paper's
// focus on Enhanced-Nbc (its ref. [13]): NHop vs Nbc vs Enhanced-Nbc
// in simulation at equal total VC budget, plus the model's prediction
// for each.
func AblationAlgorithms(vTotal, msgLen, points int, opts SimOptions) (*Panel, error) {
	base, g, err := starModel(5)
	if err != nil {
		return nil, err
	}
	p := &Panel{
		Title:  "Ablation A3: routing algorithms (S5, equal VC budget)",
		XLabel: "traffic generation rate (messages/node/cycle)",
	}
	for _, kind := range []routing.Kind{routing.NHop, routing.Nbc, routing.EnhancedNbc} {
		s := Series{Name: kind.String(), V: vTotal, MsgLen: msgLen, Kind: kind}
		for _, r := range ratesUpTo(0.015, points) {
			s.Points = append(s.Points, Point{Rate: r})
		}
		if err := runSweep(g, []*Series{&s}, opts, nil); err != nil {
			return nil, err
		}
		if err := fillModel(&s, base); err != nil {
			return nil, err
		}
		p.Series = append(p.Series, s)
	}
	return p, nil
}

// AblationVariance (A4) tests the paper's §5 claim that the
// saturation-region error stems from the service-time variance
// approximation σ² = (S̄−M)²: it evaluates the model under the
// paper's, the exponential and the deterministic variance choices.
func AblationVariance(v, msgLen, points int) ([]VarianceRow, error) {
	base, _, err := starModel(5)
	if err != nil {
		return nil, err
	}
	base.Kind, base.V, base.MsgLen = routing.EnhancedNbc, v, msgLen
	var rows []VarianceRow
	for _, rate := range ratesUpTo(0.015, points) {
		row := VarianceRow{Rate: rate}
		for i, vm := range []model.VarianceModel{
			model.PaperVariance, model.ExponentialVariance, model.DeterministicVariance,
		} {
			c := base
			c.Variance = vm
			if row.Latency[i], _, err = modelAt(c, rate); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// VarianceRow holds the three variance-model predictions at one rate,
// ordered Paper, Exponential, Deterministic.
type VarianceRow struct {
	Rate    float64
	Latency [3]float64
}
