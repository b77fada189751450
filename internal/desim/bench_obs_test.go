package desim_test

// Observer-overhead benchmarks, in the external test package because
// they attach the real internal/obs Collector (obs imports desim, so
// the internal test package cannot import it back).
//
// The acceptance bar for the observability layer is ≤5% overhead with
// the observer disabled (BenchmarkSimObserver/off vs the pre-layer
// baseline) — the hooks must stay a nil check on the hot path.
// cmd/starbench runs the same matrix outside the testing framework
// and records it in BENCH_sim.json.

import (
	"testing"

	"starperf/internal/desim"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// benchConfig is the fixed S_4 workload shared with the determinism
// test and cmd/starbench: EnhancedNbc, V=4, rate 0.02, M=8, 1000
// warmup + 5000 measured cycles.
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

// jobsAsyncConfig is the /v1/simulate job the jobs-async end-to-end
// workload submits (perfbench draws a fresh seed per job): S_4
// EnhancedNbc, V=6, M=32, rate 0.005, BufCap 2, 1000 warm-up, 4000
// measured and at most 20000 drain cycles — about 5k cycles a run.
func jobsAsyncConfig(seed uint64) desim.Config {
	s4 := stargraph.MustNew(4)
	return desim.Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 6),
		Rate:          0.005,
		MsgLen:        32,
		BufCap:        2,
		Seed:          seed,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		DrainCycles:   20000,
	}
}

func runBench(b *testing.B, cfg desim.Config) {
	b.Helper()
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := desim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cycles), "ns/cycle")
}

// BenchmarkSimObserver measures the cost of the observer hooks:
// off (nil Observer — the ≤5% budget), counters-only (tracing
// disabled), and the full collector with trace ring.
func BenchmarkSimObserver(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		runBench(b, benchConfig())
	})
	b.Run("counters", func(b *testing.B) {
		cfg := benchConfig()
		cfg.Observer = obs.New(obs.Options{TraceCap: -1})
		runBench(b, cfg)
	})
	b.Run("full", func(b *testing.B) {
		cfg := benchConfig()
		cfg.Observer = obs.New(obs.Options{})
		runBench(b, cfg)
	})
}

// BenchmarkSimJobsAsync is the compute behind one jobs-async job, so
// the end-to-end workload's simulator share has its own ns/cycle and
// allocs figure.
func BenchmarkSimJobsAsync(b *testing.B) {
	runBench(b, jobsAsyncConfig(401))
}
