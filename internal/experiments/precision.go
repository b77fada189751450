package experiments

import (
	"errors"
	"fmt"
	"math"

	"starperf/internal/desim"
	"starperf/internal/stats"
)

// PrecisionResult is the outcome of RunUntilPrecision.
type PrecisionResult struct {
	// Mean is the grand mean latency over replications and HalfWidth
	// the ~95% confidence half-width across them.
	Mean, HalfWidth float64
	// Replications is the number of independent runs performed.
	Replications int
	// Achieved reports whether the target relative half-width was
	// met before maxReps.
	Achieved bool
	// Saturated reports that any replication failed to drain —
	// precision targets are meaningless past saturation, so the
	// runner stops early and flags it.
	Saturated bool
}

// RunUntilPrecision runs independent replications of cfg (varying the
// seed) until the relative 95% confidence half-width of the mean
// latency drops below relTarget, up to maxReps replications. An
// initial batch of minReps runs first; further replications are added
// in parallel batches. This is the sequential-stopping discipline a
// careful simulation study uses instead of a fixed replication count.
func RunUntilPrecision(cfg desim.Config, relTarget float64, minReps, maxReps, workers int) (*PrecisionResult, error) {
	if relTarget <= 0 || minReps < 2 || maxReps < minReps {
		return nil, fmt.Errorf("experiments: bad precision parameters (target=%v, reps=%d..%d)",
			relTarget, minReps, maxReps)
	}
	if workers <= 0 {
		workers = 4
	}
	res := &PrecisionResult{}
	var st stats.Stream
	next := uint64(1)
	for res.Replications < maxReps {
		batch := minReps
		if res.Replications > 0 {
			batch = workers
			if res.Replications+batch > maxReps {
				batch = maxReps - res.Replications
			}
		}
		cfgs := make([]desim.Config, batch)
		for i := range cfgs {
			cfgs[i] = cfg
			cfgs[i].Seed = (next + uint64(i)) * 0x9e3779b9
		}
		next += uint64(batch)
		outs, errs := simulate(cfgs, SimOptions{Workers: workers})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		for _, out := range outs {
			if out.Saturated() {
				res.Saturated = true
			}
			st.Add(out.Latency.Mean())
			res.Replications++
		}
		res.Mean = st.Mean()
		res.HalfWidth = 1.96 * st.StdDev() / math.Sqrt(float64(st.N()))
		if res.Saturated {
			return res, nil
		}
		if res.Mean > 0 && res.HalfWidth/res.Mean <= relTarget {
			res.Achieved = true
			return res, nil
		}
	}
	return res, nil
}
