package experiments

import (
	"errors"
	"fmt"
	"io"

	"starperf/internal/desim"
	"starperf/internal/routing"
	"starperf/internal/topology"
)

// TailRow is one operating point of a latency-percentile sweep.
type TailRow struct {
	Rate           float64
	Mean           float64
	P50, P95, P99  int
	Max            float64
	Saturated      bool
	SamplesDropped uint64
}

// TailLatency sweeps offered load and reports latency percentiles —
// the tail behaviour the paper's mean-latency model deliberately does
// not capture. Wormhole blocking produces heavy tails well before the
// mean shows distress: P99/P50 grows monotonically with load.
func TailLatency(top topology.Topology, kind routing.Kind, v, msgLen, points int,
	maxRate float64, opts SimOptions) ([]TailRow, error) {
	opts = opts.withDefaults()
	spec, err := routing.New(kind, top, v)
	if err != nil {
		return nil, err
	}
	rates := ratesUpTo(maxRate, points)
	cfgs := make([]desim.Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = opts.config(top, spec, rate, msgLen, opts.Seeds[0]*104729+uint64(i))
	}
	results, errs := simulate(cfgs, opts)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rows := make([]TailRow, len(rates))
	for i, res := range results {
		rows[i] = TailRow{
			Rate:           rates[i],
			Mean:           res.Latency.Mean(),
			P50:            res.LatencyHist.Quantile(0.50),
			P95:            res.LatencyHist.Quantile(0.95),
			P99:            res.LatencyHist.Quantile(0.99),
			Max:            res.Latency.Max(),
			Saturated:      res.Saturated(),
			SamplesDropped: res.LatencyHist.Clamped,
		}
	}
	return rows, nil
}

// RenderTails writes the percentile sweep as a table.
func RenderTails(w io.Writer, rows []TailRow) {
	fmt.Fprintf(w, "%-10s %-10s %-8s %-8s %-8s %-10s %s\n",
		"rate", "mean", "p50", "p95", "p99", "max", "notes")
	for _, r := range rows {
		notes := ""
		if r.Saturated {
			notes = "saturated"
		}
		if r.SamplesDropped > 0 {
			notes += fmt.Sprintf(" (%d clamped)", r.SamplesDropped)
		}
		fmt.Fprintf(w, "%-10.5f %-10.2f %-8d %-8d %-8d %-10.0f %s\n",
			r.Rate, r.Mean, r.P50, r.P95, r.P99, r.Max, notes)
	}
}
