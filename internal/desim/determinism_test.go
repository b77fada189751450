package desim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"starperf/internal/faults"
	"starperf/internal/hypercube"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/stats"
	"starperf/internal/topology"
)

// fingerprint serialises every statistic of a Result into a canonical
// byte string: two runs agree on the fingerprint iff they agree
// bit-for-bit on the latency distributions, the full latency
// histogram, all counters and the derived metrics. This is the
// invariant the whole validation methodology (paper Figure 1a–c)
// rests on — the simulator must be a pure function of its Config.
func fingerprint(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatalf("fingerprint: %v", err)
			}
		}
	}
	stream := func(s *stats.Stream) {
		put(s.N(), math.Float64bits(s.Mean()), math.Float64bits(s.Variance()),
			math.Float64bits(s.Min()), math.Float64bits(s.Max()))
	}
	stream(&r.Latency)
	stream(&r.NetLatency)
	stream(&r.QueueTime)
	stream(&r.HopCount)
	stream(&r.VCHolding)
	stream(&r.HopWait)
	// Bins grows lazily; padding it with zeros to the full histogram
	// range keeps the encoding of the eager 16384-bin slice.
	bins := make([]uint64, latencyHistBins)
	copy(bins, r.LatencyHist.Bins)
	put(bins, r.LatencyHist.Clamped, r.LatencyHist.Total(),
		math.Float64bits(r.LatencyHist.Mean()))
	put(r.Generated, r.Delivered, r.MeasuredDelivered, r.DeliveredInWindow, r.Cycles)
	put(r.VCBusyHist, math.Float64bits(r.Multiplexing))
	put(r.ClassAUse, r.ClassBUse, r.ClassBLevelUse)
	put(r.BlockedAttempts, r.Attempts)
	put(math.Float64bits(r.ChannelGrantCV), math.Float64bits(r.ChannelRate))
	put(int64(r.MaxQueueLen), int64(r.EndQueueLen), int64(r.Nodes))
	for _, x := range r.IntervalLatency {
		put(math.Float64bits(x))
	}
	put(r.SuggestedWarmup, r.Deadlocked, r.Drained)
	put(r.Aborted, r.StallCycle, r.Misroutes, int64(len(r.StallTrace)))
	return buf.Bytes()
}

// TestDeterminismByteIdentical is the determinism regression gate:
// two runs with an identical Config (including Seed) must produce
// byte-identical statistics, across two topologies and two routing
// algorithms. Any nondeterminism source — map-iteration order feeding
// event order, unseeded randomness, scheduling-dependent float
// summation — fails this test.
func TestDeterminismByteIdentical(t *testing.T) {
	s4 := stargraph.MustNew(4)
	// a faulted topology must be exactly as deterministic as a
	// pristine one: same fault seed → byte-identical Result,
	// including the flap-driven misroute fallback
	faultPlan, err := faults.NewPlan(s4, 97, faults.Options{FailLinks: 1, Flaps: 1,
		FlapPeriod: 512, FlapDown: 128})
	if err != nil {
		t.Fatal(err)
	}
	tops := []struct {
		name string
		top  topology.Topology
		v    int
	}{
		{"S4", s4, 4},
		{"Q4", hypercube.MustNew(4), 4},
		// the degraded diameter can exceed the pristine one, raising
		// the escape-level minimum — hence the larger budget
		{"S4-faulted", faults.MustApply(s4, faultPlan), 6},
	}
	kinds := []routing.Kind{routing.NHop, routing.EnhancedNbc}
	for _, tc := range tops {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(t *testing.T) {
				cfg := Config{
					Top:           tc.top,
					Spec:          routing.MustNew(kind, tc.top, tc.v),
					Policy:        routing.PreferClassA,
					Rate:          0.02,
					MsgLen:        8,
					Seed:          12345,
					WarmupCycles:  1000,
					MeasureCycles: 5000,
				}
				run := func() ([]byte, *Result, []Event) {
					res, rec, err := RunRecorded(cfg, 64)
					if err != nil {
						t.Fatal(err)
					}
					return fingerprint(t, res), res, rec.Events
				}
				fp1, res1, ev1 := run()
				fp2, _, _ := run()
				if !bytes.Equal(fp1, fp2) {
					t.Fatalf("two runs with identical Config diverged (fingerprints %d vs %d bytes differ)",
						len(fp1), len(fp2))
				}
				if res1.MeasuredDelivered == 0 {
					t.Fatal("no measured deliveries: the fingerprint compared empty statistics")
				}
				// The traces must agree event-for-event, not just in
				// aggregate.
				_, _, ev3 := run()
				if len(ev1) != len(ev3) {
					t.Fatalf("trace lengths differ: %d vs %d", len(ev1), len(ev3))
				}
				for i := range ev1 {
					if ev1[i] != ev3[i] {
						t.Fatalf("trace event %d differs: %+v vs %+v", i, ev1[i], ev3[i])
					}
				}
				// A different seed must move the statistics — otherwise
				// the fingerprint (or the seeding) is vacuous.
				cfg.Seed = 54321
				res4, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(fp1, fingerprint(t, res4)) {
					t.Fatal("different seeds produced byte-identical statistics")
				}
			})
		}
	}
}
