package experiments

import (
	"errors"
	"fmt"
	"io"

	"starperf/internal/desim"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// LevelUsageRow reports how one algorithm spreads its class-b
// (escape) acquisitions across virtual-channel levels.
type LevelUsageRow struct {
	Kind routing.Kind
	// Share[l] is the fraction of class-b acquisitions at level l.
	Share []float64
	// Imbalance is Share[0]/Share[V2-1] (∞-safe: capped at 1e9), the
	// paper's "virtual channels with high numbers will be used
	// rarely" in one number.
	Imbalance float64
	// ClassAShare is the fraction of all acquisitions on class-a
	// channels (0 for the escape-only schemes).
	ClassAShare float64
}

// LevelUsage reproduces the paper's §3 motivation for bonus cards:
// under NHop a message occupies exactly the level equal to its
// negative-hop count, so low levels are hammered and high levels
// starve; Nbc's bonus cards spread the load. Measured on S5 at the
// given load with an equal total VC budget.
func LevelUsage(v, msgLen int, rate float64, opts SimOptions) ([]LevelUsageRow, error) {
	opts = opts.withDefaults()
	g, err := stargraph.New(5)
	if err != nil {
		return nil, err
	}
	kinds := []routing.Kind{routing.NHop, routing.Nbc, routing.EnhancedNbc}
	cfgs := make([]desim.Config, len(kinds))
	for i, kind := range kinds {
		spec, err := routing.New(kind, g, v)
		if err != nil {
			return nil, err
		}
		cfgs[i] = opts.config(g, spec, rate, msgLen, opts.Seeds[0])
	}
	results, errs := simulate(cfgs, opts)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rows := make([]LevelUsageRow, len(kinds))
	for i, res := range results {
		row := LevelUsageRow{Kind: kinds[i], Share: make([]float64, cfgs[i].Spec.V2)}
		var total float64
		for _, c := range res.ClassBLevelUse {
			total += float64(c)
		}
		for l, c := range res.ClassBLevelUse {
			if total > 0 {
				row.Share[l] = float64(c) / total
			}
		}
		if last := row.Share[len(row.Share)-1]; last > 0 {
			row.Imbalance = row.Share[0] / last
		} else {
			row.Imbalance = 1e9
		}
		if all := float64(res.ClassAUse + res.ClassBUse); all > 0 {
			row.ClassAShare = float64(res.ClassAUse) / all
		}
		rows[i] = row
	}
	return rows, nil
}

// RenderLevels writes the level-usage comparison.
func RenderLevels(w io.Writer, rows []LevelUsageRow) {
	fmt.Fprintf(w, "class-b level usage shares (level 0 … V2−1):\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s", r.Kind)
		for _, s := range r.Share {
			fmt.Fprintf(w, " %6.3f", s)
		}
		fmt.Fprintf(w, "   imbalance %.1fx", r.Imbalance)
		if r.ClassAShare > 0 {
			fmt.Fprintf(w, "   (%.0f%% of hops on class a)", r.ClassAShare*100)
		}
		fmt.Fprintln(w)
	}
}
