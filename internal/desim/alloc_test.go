package desim_test

import (
	"testing"

	"starperf/internal/desim"
)

// steadyAllocSlack bounds the allocations a run may add when its
// measurement window doubles: IntervalLatency growing by appends (a
// few doublings) and message structs when the peak number in flight
// rises (the free list recycles the rest).
const steadyAllocSlack = 16

// TestRunAllocsSteadyState: after its tables are built, the cycle
// loop allocates nothing per cycle, so doubling the measurement
// window of the jobs-async job adds at most steadyAllocSlack
// allocations.
func TestRunAllocsSteadyState(t *testing.T) {
	allocs := func(measure int64) float64 {
		cfg := jobsAsyncConfig(401)
		cfg.MeasureCycles = measure
		return testing.AllocsPerRun(2, func() {
			if _, err := desim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4000), allocs(8000)
	if long > short+steadyAllocSlack {
		t.Fatalf("allocs per run: %v at 4000 measured cycles, %v at 8000 (slack %d): the cycle loop allocates",
			short, long, steadyAllocSlack)
	}
}
