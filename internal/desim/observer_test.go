package desim

import (
	"bytes"
	"fmt"
	"testing"

	"starperf/internal/faults"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

// recordingObserver is a test fake that tallies every callback and
// re-checks the hook ordering contract.
type recordingObserver struct {
	t        *testing.T
	began    int
	ended    int
	cycles   int64
	lastEv   int64 // cycle of the last event seen
	byKind   [5]uint64
	probe    Probe
	channels int
}

func (r *recordingObserver) BeginRun(info RunInfo) {
	r.began++
	r.probe = info.Probe
	r.channels = info.Probe.Channels()
	if info.Nodes*info.Slots != r.channels {
		r.t.Errorf("RunInfo dims inconsistent: %d nodes × %d slots ≠ %d channels",
			info.Nodes, info.Slots, r.channels)
	}
	if info.Cfg.Observer == nil {
		r.t.Error("RunInfo.Cfg lost the Observer field")
	}
}

func (r *recordingObserver) HandleEvent(ev Event) {
	if int(ev.Kind) < len(r.byKind) {
		r.byKind[ev.Kind]++
	}
	if ev.Cycle < r.lastEv {
		r.t.Errorf("event at cycle %d delivered after cycle %d: order broken", ev.Cycle, r.lastEv)
	}
	r.lastEv = ev.Cycle
	if ev.Cycle < r.cycles {
		r.t.Errorf("event for cycle %d after EndCycle(%d): events must precede the tick", ev.Cycle, r.cycles-1)
	}
}

func (r *recordingObserver) EndCycle(cycle int64) {
	if cycle != r.cycles {
		r.t.Errorf("EndCycle(%d) out of sequence, want %d", cycle, r.cycles)
	}
	r.cycles++
}

func (r *recordingObserver) EndRun(res *Result) {
	r.ended++
	if res == nil {
		r.t.Error("EndRun received a nil Result")
	}
}

// TestObserverSeesFullLifecycle attaches the recording fake and
// cross-checks its tallies against the run's own statistics.
func TestObserverSeesFullLifecycle(t *testing.T) {
	s4 := stargraph.MustNew(4)
	rec := &recordingObserver{t: t}
	cfg := Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 4),
		Policy:        routing.PreferClassA,
		Rate:          0.02,
		MsgLen:        8,
		Seed:          12345,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
		Observer:      rec,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.began != 1 || rec.ended != 1 {
		t.Fatalf("BeginRun/EndRun called %d/%d times, want 1/1", rec.began, rec.ended)
	}
	if rec.cycles != res.Cycles {
		t.Errorf("EndCycle ticked %d times, Result.Cycles = %d", rec.cycles, res.Cycles)
	}
	if rec.byKind[EvGenerate] != uint64(res.Generated) {
		t.Errorf("observed %d generate events, Result.Generated = %d", rec.byKind[EvGenerate], res.Generated)
	}
	if rec.byKind[EvDeliver] != uint64(res.Delivered) {
		t.Errorf("observed %d deliver events, Result.Delivered = %d", rec.byKind[EvDeliver], res.Delivered)
	}
	if rec.byKind[EvInject] < rec.byKind[EvDeliver] {
		t.Errorf("fewer injections (%d) than deliveries (%d)", rec.byKind[EvInject], rec.byKind[EvDeliver])
	}
	// One grant per network hop plus the ejection grant per delivered
	// message: grants strictly exceed deliveries on any multi-hop
	// topology.
	if rec.byKind[EvGrant] <= rec.byKind[EvDeliver] {
		t.Errorf("grants (%d) not above deliveries (%d)", rec.byKind[EvGrant], rec.byKind[EvDeliver])
	}
	if res.BlockedAttempts > 0 && rec.byKind[EvBlock] == 0 {
		t.Error("run blocked but no EvBlock delivered to the observer")
	}
	if rec.byKind[EvBlock] > uint64(res.BlockedAttempts) {
		t.Errorf("more block episodes (%d) than blocked attempts (%d)", rec.byKind[EvBlock], res.BlockedAttempts)
	}
}

// TestObserverDoesNotPerturb is the passivity gate behind the
// Observer contract: attaching an observer must leave the Result —
// fingerprint and recorded trace — byte-identical to an unobserved run,
// across the same topology/routing matrix as the determinism test.
func TestObserverDoesNotPerturb(t *testing.T) {
	s4 := stargraph.MustNew(4)
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
		{"S4-faulted", faults.MustApply(s4, faultPlan), 6},
	}
	for _, tc := range tops {
		for _, kind := range []routing.Kind{routing.NHop, routing.EnhancedNbc} {
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
				bare, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				plain, plainRec, err := RunRecorded(cfg, 64)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Observer = &recordingObserver{t: t}
				observed, obsRec, err := RunRecorded(cfg, 64)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fingerprint(t, bare), fingerprint(t, plain)) ||
					!bytes.Equal(fingerprint(t, plain), fingerprint(t, observed)) {
					t.Fatal("attaching an observer changed the Result fingerprint")
				}
				if len(plainRec.Events) != len(obsRec.Events) {
					t.Fatalf("trace lengths differ: %d without observer, %d with", len(plainRec.Events), len(obsRec.Events))
				}
				for i := range plainRec.Events {
					if plainRec.Events[i] != obsRec.Events[i] {
						t.Fatalf("trace event %d differs: %+v vs %+v", i, plainRec.Events[i], obsRec.Events[i])
					}
				}
			})
		}
	}
}
