package experiments

import (
	"fmt"
	"testing"

	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// TestIdenticalAcrossWorkers is the determinism contract of the one
// simulation runner: every entry point that simulates must reproduce
// its serial output exactly at a higher worker count — seeds are pure
// functions of position and results are index-addressed, so
// scheduling order cannot leak into the output.
func TestIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulating entry point twice")
	}
	s4, s5 := stargraph.MustNew(4), stargraph.MustNew(5)
	tiny := SimOptions{Warmup: 500, Measure: 2000, Drain: 20000, Seeds: []uint64{7, 8}}
	for _, tc := range []struct {
		name string
		run  func(opts SimOptions) (any, error)
	}{
		{"Figure1Panel", func(o SimOptions) (any, error) {
			return Figure1Panel(Figure1Config{Panel: 'a', Points: 3, Sim: o})
		}},
		{"ThroughputSweep", func(o SimOptions) (any, error) {
			return ThroughputSweep(ThroughputConfig{
				Top: s4, Kind: routing.EnhancedNbc, V: 4, MsgLen: 16,
				Points: 4, MaxRate: 0.04, Sim: o,
			})
		}},
		{"TailLatency", func(o SimOptions) (any, error) {
			return TailLatency(s5, routing.EnhancedNbc, 6, 32, 3, 0.014, o)
		}},
		{"SwitchingComparison", func(o SimOptions) (any, error) {
			return SwitchingComparison(6, 32, 3, o)
		}},
		{"LevelUsage", func(o SimOptions) (any, error) {
			return LevelUsage(6, 32, 0.008, o)
		}},
		{"BoundsFigure", func(o SimOptions) (any, error) {
			return BoundsFigure(BoundsFigureConfig{Points: 3, Sim: o})
		}},
		{"StarVsHypercube", func(o SimOptions) (any, error) {
			return StarVsHypercube(32, 6, 3, o)
		}},
		{"AblationSelection", func(o SimOptions) (any, error) {
			return AblationSelection(6, 32, 3, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(workers int) string {
				o := tiny
				o.Workers = workers
				out, err := tc.run(o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				// %#v spells every float exactly (shortest round-trip
				// form) and NaN as NaN, so equal strings mean deep-equal
				// outputs with NaN matching NaN
				return fmt.Sprintf("%#v", out)
			}
			serial, parallel := render(1), render(4)
			if serial != parallel {
				t.Fatalf("workers=4 output differs from serial:\n--- serial\n%s\n--- workers=4\n%s", serial, parallel)
			}
		})
	}
}
