package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"starperf/internal/desim"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/traffic"
)

// simCfg is the short, deterministic run the resilience tests build
// on.
func simCfg(top topology.Topology, spec routing.Spec, rate float64, maxAge int64) desim.Config {
	return desim.Config{
		Top: top, Spec: spec, Rate: rate, MsgLen: 8, Seed: 1,
		WarmupCycles: 1000, MeasureCycles: 5000, DrainCycles: 20000,
		MaxMsgAge: maxAge,
	}
}

// wildPattern addresses a destination outside the topology, making
// the simulator panic on an index — the stand-in for any internal
// invariant violation the harness must survive.
type wildPattern struct{}

func (wildPattern) Name() string { return "wild" }
func (wildPattern) Destination(src int, rng *traffic.RNG) int {
	return 1 << 20
}

var _ traffic.Pattern = wildPattern{}

// TestSweepRecoversFromPanic runs a sweep whose every simulation
// panics: the sweep itself must succeed, with the points marked
// failed instead of the process dying.
func TestSweepRecoversFromPanic(t *testing.T) {
	g := stargraph.MustNew(4)
	s := Series{Kind: routing.EnhancedNbc, V: 6, MsgLen: 8,
		Points: []Point{{Rate: 0.01}}}
	opts := SimOptions{Warmup: 100, Measure: 500, Drain: 2000, Seeds: []uint64{1, 2}}
	if err := runSweep(g, []*Series{&s}, opts, wildPattern{}); err != nil {
		t.Fatalf("sweep died instead of marking the point: %v", err)
	}
	pt := s.Points[0]
	if !pt.Failed || !strings.Contains(pt.Err, "panicked") {
		t.Fatalf("point not marked as panicked: %+v", pt)
	}
	if !math.IsNaN(pt.Sim) {
		t.Fatalf("Sim %v for a point with no surviving replication", pt.Sim)
	}
}

// TestSweepMarksWatchdogFailures arms an absurd one-cycle message age
// so every replication aborts (and its escalated-drain retry aborts
// too): the point must be marked failed with the watchdog's reason,
// and both renderers must surface it.
func TestSweepMarksWatchdogFailures(t *testing.T) {
	g := stargraph.MustNew(4)
	s := Series{Name: "M=8", Kind: routing.EnhancedNbc, V: 6, MsgLen: 8,
		Points: []Point{{Rate: 0.02}}}
	opts := SimOptions{Warmup: 2000, Measure: 8000, Drain: 8000,
		Seeds: []uint64{1}, MaxMsgAge: 1}
	if err := runSweep(g, []*Series{&s}, opts, nil); err != nil {
		t.Fatalf("sweep died instead of marking the point: %v", err)
	}
	pt := s.Points[0]
	if !pt.Failed || !strings.Contains(pt.Err, "in flight") {
		t.Fatalf("watchdog abort not recorded: %+v", pt)
	}
	p := &Panel{Title: "degraded", Series: []Series{s}}
	var buf bytes.Buffer
	RenderPanel(&buf, p)
	if !strings.Contains(buf.String(), "FAILED:") {
		t.Fatalf("panel hides the failed point:\n%s", buf.String())
	}
	buf.Reset()
	RenderPanelCSV(&buf, p)
	out := buf.String()
	if !strings.Contains(out, ",failed") || !strings.Contains(out, ",true\n") {
		t.Fatalf("CSV hides the failed point:\n%s", out)
	}
}

// TestRunPointRetriesEscalatedDrain checks the single-retry policy: a
// run that only aborts at the default drain window but survives at
// the escalated one must come back as a success.
func TestRunPointRetriesEscalatedDrain(t *testing.T) {
	g := stargraph.MustNew(4)
	spec, err := routing.New(routing.EnhancedNbc, g, 6)
	if err != nil {
		t.Fatal(err)
	}
	// saturating load: the default drain window cannot empty the
	// network, so Saturated/!Drained holds but nothing aborts — this
	// config exercises the success path through runPoint unchanged
	res, err := runPoint(simCfg(g, spec, 0.01, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("healthy run aborted: %s", res.AbortReason)
	}
	// an impossible age limit fails both attempts and composes both
	// abort reasons into the error
	_, err = runPoint(simCfg(g, spec, 0.02, 1))
	if err == nil || !strings.Contains(err.Error(), "retry at 4× drain") {
		t.Fatalf("escalated retry not reported: %v", err)
	}
}

// TestRowExperimentsHonourMaxMsgAge: the row-shaped experiments build
// their runs from SimOptions like the latency sweeps do, so an
// impossible age limit reaches every run and surfaces as the
// watchdog's retry error instead of being dropped.
func TestRowExperimentsHonourMaxMsgAge(t *testing.T) {
	opts := SimOptions{Warmup: 200, Measure: 1000, Drain: 2000, Seeds: []uint64{1}, Workers: 1, MaxMsgAge: 1}
	s4 := stargraph.MustNew(4)
	runs := map[string]func() error{
		"TailLatency": func() error {
			_, err := TailLatency(s4, routing.EnhancedNbc, 6, 8, 2, 0.01, opts)
			return err
		},
		"LevelUsage": func() error {
			_, err := LevelUsage(6, 8, 0.005, opts)
			return err
		},
		"SwitchingComparison": func() error {
			_, err := SwitchingComparison(6, 8, 1, opts)
			return err
		},
		"BoundsFigure": func() error {
			_, err := BoundsFigure(BoundsFigureConfig{MsgLen: 8, Points: 1, Sim: opts})
			return err
		},
		"ThroughputSweep": func() error {
			_, err := ThroughputSweep(ThroughputConfig{Top: s4, Kind: routing.EnhancedNbc, V: 6,
				MsgLen: 8, Points: 1, MaxRate: 0.01, Sim: opts})
			return err
		},
	}
	for _, name := range []string{"TailLatency", "LevelUsage", "SwitchingComparison", "BoundsFigure", "ThroughputSweep"} {
		t.Run(name, func(t *testing.T) {
			if err := runs[name](); err == nil || !strings.Contains(err.Error(), "retry at 4× drain") {
				t.Fatalf("MaxMsgAge 1 did not abort the runs: %v", err)
			}
		})
	}
}
