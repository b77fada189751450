// Command starmodel evaluates the paper's analytical latency model
// at one operating point or over a rate sweep, on a star graph (the
// paper's setting), a hypercube, or a k-ary n-cube.
//
// Usage:
//
//	starmodel [-n 5 | -cube 7 | -torus-k 8 -torus-n 2] [-v 6] [-m 32]
//	          [-kind enbc|nbc|nhop]
//	          [-blocking window|paper-in|paper-out]
//	          [-rate 0.008 | -sweep 0.015 -points 15]
//	          [-sat] [-bounds]
//
// With -bounds the worst-case delay-bound engine (internal/bounds)
// runs next to the model: each operating point prints the mean
// latency the model predicts and the per-class worst-case bounds no
// flow can exceed; past the engine's capacity it prints
// "unboundable".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"starperf/internal/bounds"
	"starperf/internal/hypercube"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
)

func parseBlocking(s string) (model.BlockingModel, error) {
	switch s {
	case "window":
		return model.Window, nil
	case "paper-in":
		return model.PaperInsidePower, nil
	case "paper-out":
		return model.PaperOutsidePower, nil
	}
	return 0, fmt.Errorf("unknown blocking model %q", s)
}

func main() {
	n := flag.Int("n", 5, "star graph symbols (ignored with -cube/-torus)")
	cube := flag.Int("cube", 0, "use a hypercube of this dimension instead")
	torusK := flag.Int("torus-k", 0, "use a k-ary n-cube with this (even) radix")
	torusN := flag.Int("torus-n", 2, "torus dimensions (with -torus-k)")
	v := flag.Int("v", 6, "virtual channels per physical channel")
	m := flag.Int("m", 32, "message length in flits")
	kindS := flag.String("kind", "enbc", "routing algorithm: enbc|nbc|nhop")
	blockS := flag.String("blocking", "window", "blocking model: window|paper-in|paper-out")
	rate := flag.Float64("rate", 0.008, "per-node generation rate λg (messages/cycle)")
	sweep := flag.Float64("sweep", 0, "sweep rates from 0 to this value instead of -rate")
	points := flag.Int("points", 15, "points in the sweep")
	sat := flag.Bool("sat", false, "also report the model's saturation rate")
	boundsF := flag.Bool("bounds", false, "also print worst-case delay bounds per operating point")
	classes := flag.Bool("classes", false, "print the per-class latency decomposition at -rate")
	flag.Parse()

	kind, err := routing.ParseKind(*kindS)
	if err != nil {
		fail(err)
	}
	blocking, err := parseBlocking(*blockS)
	if err != nil {
		fail(err)
	}
	var paths model.PathStructure
	var top topology.Topology
	switch {
	case *cube > 0:
		cp, err := model.NewCubePaths(*cube)
		if err != nil {
			fail(err)
		}
		g, err := hypercube.New(*cube)
		if err != nil {
			fail(err)
		}
		paths, top = cp, g
	case *torusK > 0:
		tp, err := model.NewTorusPaths(*torusK, *torusN)
		if err != nil {
			fail(err)
		}
		g, err := torus.New(*torusK, *torusN)
		if err != nil {
			fail(err)
		}
		paths, top = tp, g
	default:
		sp, err := model.NewStarPaths(*n)
		if err != nil {
			fail(err)
		}
		g, err := stargraph.New(*n)
		if err != nil {
			fail(err)
		}
		paths, top = sp, g
	}
	base := model.Config{
		Paths: paths, Top: top, Kind: kind, V: *v, MsgLen: *m, Blocking: blocking,
	}

	eval := func(r float64) {
		cfg := base
		cfg.Rate = r
		res, err := model.Evaluate(cfg)
		if errors.Is(err, model.ErrSaturated) {
			fmt.Printf("%-10.5f saturated\n", r)
		} else if err != nil {
			fail(err)
		} else {
			fmt.Printf("%-10.5f latency=%-10.3f S=%-10.3f Ws=%-8.3f w=%-8.3f Vbar=%-7.4f util=%-7.4f pblock=%-9.6f iters=%d\n",
				r, res.Latency, res.NetLatency, res.SourceWait, res.ChannelWait,
				res.Multiplexing, res.Utilization, res.MeanBlocking, res.Iterations)
		}
		if *boundsF {
			printBounds(top, kind, *v, *m, r)
		}
	}

	fmt.Printf("model: %s V=%d M=%d %s blocking=%s (d̄=%.4f)\n",
		top.Name(), *v, *m, kind, blocking, top.AvgDistance())
	if *sweep > 0 {
		for i := 1; i <= *points; i++ {
			eval(*sweep * float64(i) / float64(*points))
		}
	} else {
		eval(*rate)
	}
	if *classes {
		cfg := base
		cfg.Rate = *rate
		res, err := model.Evaluate(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("per-class decomposition at λg=%.5f (class | h | weight | S_i | blocking):\n", *rate)
		for _, c := range res.PerClass {
			fmt.Printf("  %-16s h=%-3d w=%-8.5f S=%-9.3f B=%.3f\n",
				c.Label, c.H, c.Weight, c.NetLatency, c.Blocking)
		}
	}
	if *sat {
		s, err := model.SaturationRate(base, 1e-5, 0.2)
		if err != nil {
			fail(err)
		}
		fmt.Printf("saturation rate ≈ %.5f messages/node/cycle\n", s)
	}
}

// printBounds runs the worst-case engine at one operating point and
// prints the per-class bounds under the model line.
func printBounds(top topology.Topology, kind routing.Kind, v, m int, rate float64) {
	res, err := bounds.Evaluate(bounds.Config{
		Top: top, Kind: kind, V: v, MsgLen: m, Rate: rate,
	})
	if errors.Is(err, bounds.ErrUnboundable) {
		fmt.Printf("  bound: unboundable (no finite worst case at λg=%.5f)\n", rate)
		return
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("  bound: worst=%-10.1f util=%-7.4f T=%-9.3f %s iters=%d\n",
		res.WorstCase, res.Utilization, res.HopDelay, compLabel(res.Feedforward), res.Iterations)
	for _, fb := range res.Classes {
		fmt.Printf("    h=%-3d flows=%-5d bound=%.1f\n", fb.Hops, fb.Flows, fb.Bound)
	}
}

func compLabel(ff bool) string {
	if ff {
		return "feedforward"
	}
	return "cyclic"
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "starmodel: %v\n", err)
	os.Exit(1)
}
