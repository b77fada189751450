package main

import (
	"starperf/internal/bounds"
	"starperf/internal/hypercube"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/torus"
)

// The bounds suite: cost of one worst-case delay-bound evaluation
// (internal/bounds.Evaluate) across topology sizes — the quadratic
// load enumeration dominates, so the flows column is the natural
// x-axis.

// boundsBenches evaluates each workload once, for its flows,
// channels and iterations, and returns the timed loops.
func boundsBenches() ([]bench, error) {
	return evaluated([]named[bounds.Config]{
		{"star_s4", bounds.Config{Top: stargraph.MustNew(4), Kind: routing.EnhancedNbc, V: 6, MsgLen: 32, Rate: 0.002}},
		{"star_s5", bounds.Config{Top: stargraph.MustNew(5), Kind: routing.EnhancedNbc, V: 8, MsgLen: 32, Rate: 0.0005}},
		{"cube_q6", bounds.Config{Top: hypercube.MustNew(6), Kind: routing.EnhancedNbc, V: 5, MsgLen: 16, Rate: 0.002}},
		{"torus_8x2", bounds.Config{Top: torus.MustNew(8, 2), Kind: routing.Nbc, V: 6, MsgLen: 16, Rate: 0.002}},
	}, bounds.Evaluate, func(name string, r *bounds.Result) variant {
		return variant{Name: name, Flows: r.Flows, Channels: r.Channels, Iterations: r.Iterations}
	})
}
