package main

import (
	"starperf/internal/desim"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// The sim suite: the simulator's per-cycle cost and the overhead of
// the observability layer on a fixed S_4 workload (the same
// EnhancedNbc/V=4/rate 0.02 configuration the determinism test pins),
// with no observer, an enabled collector, the full collector with
// tracing, and the built-in 64-entry trace; and the cost of the
// /v1/simulate job the jobs-async end-to-end workload submits.

// benchConfig mirrors bench_obs_test.go: the fixed S_4 workload.
func benchConfig() desim.Config {
	s4 := stargraph.MustNew(4)
	return desim.Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 4),
		Policy:        routing.PreferClassA,
		Rate:          0.02,
		MsgLen:        8,
		Seed:          12345,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
	}
}

// jobsAsyncConfig mirrors bench_obs_test.go: the jobs-async simulate
// job at one fixed seed.
func jobsAsyncConfig() desim.Config {
	s4 := stargraph.MustNew(4)
	return desim.Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 6),
		Rate:          0.005,
		MsgLen:        32,
		BufCap:        2,
		Seed:          401,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		DrainCycles:   20000,
	}
}

// simBenches runs each configuration once, to count the cycles a run
// simulates, and returns the timed loops.
func simBenches() ([]bench, error) {
	counters, full := benchConfig(), benchConfig()
	counters.Observer = obs.New(obs.Options{TraceCap: -1})
	full.Observer = obs.New(obs.Options{})
	return evaluated([]named[desim.Config]{
		{"off", benchConfig()}, {"counters", counters}, {"full", full},
		{"jobs_async", jobsAsyncConfig()},
	}, desim.Run, func(name string, r *desim.Result) variant { return variant{Name: name, cycles: r.Cycles} })
}
