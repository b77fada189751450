// Command starsim runs the flit-level wormhole simulator on a star
// graph, hypercube or k-ary n-cube and reports latency and channel
// statistics.
//
// Usage:
//
//	starsim [-n 5 | -cube 7 | -torus-k 8 -torus-n 2] [-v 6] [-m 32]
//	        [-rate 0.008] [-kind enbc|nbc|nhop]
//	        [-policy prefer-a|random|lowest-b|deterministic]
//	        [-seed 1] [-warmup 10000] [-measure 50000] [-drain 0]
//	        [-pattern uniform|hotspot] [-hotfrac 0.1]
//	        [-trace out.jsonl] [-metrics out.csv] [-hops out.csv]
//	        [-sample-every 256] [-trace-cap 4096]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The observability flags attach an obs.Collector to the run: -trace
// writes the message-lifecycle ring as JSON Lines, -metrics the
// cycle-sampled gauge series as CSV, and -hops the per-hop blocking
// counters (the simulator's P_block/w̄ counterparts) as CSV.
// Observation is passive, so the printed statistics are identical
// with and without these flags. -cpuprofile/-memprofile write
// standard pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"starperf/internal/desim"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
	"starperf/internal/traffic"
)

func main() {
	n := flag.Int("n", 5, "star graph symbols (ignored with -cube/-torus)")
	cube := flag.Int("cube", 0, "use a hypercube of this dimension instead")
	torusK := flag.Int("torus-k", 0, "use a k-ary n-cube with this (even) radix")
	torusN := flag.Int("torus-n", 2, "torus dimensions (with -torus-k)")
	meshK := flag.Int("mesh-k", 0, "use a k-ary n-mesh with this radix")
	meshN := flag.Int("mesh-n", 2, "mesh dimensions (with -mesh-k)")
	v := flag.Int("v", 6, "virtual channels per physical channel")
	m := flag.Int("m", 32, "message length in flits")
	rate := flag.Float64("rate", 0.008, "per-node generation rate λg")
	kindS := flag.String("kind", "enbc", "routing algorithm: enbc|nbc|nhop")
	policyS := flag.String("policy", "prefer-a", "VC selection: prefer-a|random|lowest-b")
	seed := flag.Uint64("seed", 1, "RNG seed")
	warmup := flag.Int64("warmup", 10000, "warm-up cycles")
	measure := flag.Int64("measure", 50000, "measurement window cycles")
	drain := flag.Int64("drain", 0, "drain limit cycles (0 = auto)")
	patternS := flag.String("pattern", "uniform", "traffic pattern: uniform|hotspot")
	hotfrac := flag.Float64("hotfrac", 0.1, "hotspot traffic fraction")
	tracePath := flag.String("trace", "", "write the message-lifecycle trace as JSONL to this file")
	metricsPath := flag.String("metrics", "", "write the cycle-sampled gauge series as CSV to this file")
	hopsPath := flag.String("hops", "", "write per-hop blocking counters as CSV to this file")
	sampleEvery := flag.Int64("sample-every", 256, "gauge sampling interval in cycles")
	traceCap := flag.Int("trace-cap", 4096, "trace ring capacity in events")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var top topology.Topology
	switch {
	case *cube > 0:
		g, err := hypercube.New(*cube)
		if err != nil {
			fail(err)
		}
		top = g
	case *torusK > 0:
		g, err := torus.New(*torusK, *torusN)
		if err != nil {
			fail(err)
		}
		top = g
	case *meshK > 0:
		g, err := mesh.New(*meshK, *meshN)
		if err != nil {
			fail(err)
		}
		top = g
	default:
		g, err := stargraph.New(*n)
		if err != nil {
			fail(err)
		}
		top = g
	}

	kind, err := routing.ParseKind(*kindS)
	if err != nil {
		fail(err)
	}
	var policy routing.Policy
	switch *policyS {
	case "prefer-a":
		policy = routing.PreferClassA
	case "random":
		policy = routing.RandomAny
	case "lowest-b":
		policy = routing.LowestEscapeFirst
	case "deterministic":
		policy = routing.FirstProfitable
	default:
		fail(fmt.Errorf("unknown policy %q", *policyS))
	}
	spec, err := routing.New(kind, top, *v)
	if err != nil {
		fail(err)
	}
	var pattern traffic.Pattern
	switch *patternS {
	case "uniform":
	case "hotspot":
		pattern = traffic.Hotspot{N: top.N(), Hot: 0, Fraction: *hotfrac}
	default:
		fail(fmt.Errorf("unknown pattern %q", *patternS))
	}

	var col *obs.Collector
	cfg := desim.Config{
		Top: top, Spec: spec, Policy: policy, Pattern: pattern,
		Rate: *rate, MsgLen: *m, Seed: *seed,
		WarmupCycles: *warmup, MeasureCycles: *measure, DrainCycles: *drain,
	}
	if *tracePath != "" || *metricsPath != "" || *hopsPath != "" {
		col = obs.New(obs.Options{SampleEvery: *sampleEvery, TraceCap: *traceCap})
		cfg.Observer = col
	}
	res, err := desim.Run(cfg)
	if err != nil {
		fail(err)
	}
	if col != nil {
		writeArtifact(*tracePath, col.WriteTraceJSONL)
		writeArtifact(*metricsPath, col.Metrics().WriteSeriesCSV)
		writeArtifact(*hopsPath, col.Counters().WriteHopCSV)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}

	fmt.Printf("simulation: %s V=%d M=%d %s policy=%s rate=%.5f seed=%d\n",
		top.Name(), *v, *m, kind, policy, *rate, *seed)
	fmt.Printf("  cycles            %d\n", res.Cycles)
	fmt.Printf("  generated         %d\n", res.Generated)
	fmt.Printf("  delivered         %d (measured %d)\n", res.Delivered, res.MeasuredDelivered)
	fmt.Printf("  latency           %.3f ± %.3f (sd), min %.0f max %.0f\n",
		res.Latency.Mean(), res.Latency.StdDev(), res.Latency.Min(), res.Latency.Max())
	fmt.Printf("  latency p50/p99   %d / %d\n",
		res.LatencyHist.Quantile(0.50), res.LatencyHist.Quantile(0.99))
	fmt.Printf("  network latency   %.3f\n", res.NetLatency.Mean())
	fmt.Printf("  queue time        %.3f\n", res.QueueTime.Mean())
	fmt.Printf("  hops              %.3f (d̄=%.3f)\n", res.HopCount.Mean(), top.AvgDistance())
	fmt.Printf("  multiplexing      %.4f\n", res.Multiplexing)
	fmt.Printf("  VC holding        %.3f (min %.0f)\n", res.VCHolding.Mean(), res.VCHolding.Min())
	fmt.Printf("  hop wait          %.3f\n", res.HopWait.Mean())
	fmt.Printf("  blocked attempts  %d/%d (%.4f)\n", res.BlockedAttempts, res.Attempts,
		float64(res.BlockedAttempts)/float64(max(res.Attempts, 1)))
	fmt.Printf("  class a/b use     %d / %d\n", res.ClassAUse, res.ClassBUse)
	fmt.Printf("  class-b levels    %v\n", res.ClassBLevelUse)
	fmt.Printf("  max queue         %d (end %d)\n", res.MaxQueueLen, res.EndQueueLen)
	fmt.Printf("  drained           %v\n", res.Drained)
	if res.SuggestedWarmup >= 0 {
		fmt.Printf("  MSER warmup hint  %d cycles\n", res.SuggestedWarmup)
	}
	if res.Saturated() {
		fmt.Printf("  ** operating point is beyond saturation **\n")
	}
}

// writeArtifact writes one observer export to path (no-op when the
// flag was left empty).
func writeArtifact(path string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "starsim: %v\n", err)
	os.Exit(1)
}
