package desim

import (
	"strings"
	"testing"

	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// TestTraceWormholeOrdering audits the full life of every traced
// message: generate ≤ inject < grants < deliver, grant count equal to
// injection + hops + ejection, strictly one hop per grant, and the
// last grant on the destination's ejection channel.
func TestTraceWormholeOrdering(t *testing.T) {
	g := stargraph.MustNew(4)
	cfg := Config{
		Top:           g,
		Spec:          routing.MustNew(routing.EnhancedNbc, g, 5),
		Rate:          0.004,
		MsgLen:        8,
		Seed:          6,
		WarmupCycles:  0,
		MeasureCycles: 4000,
	}
	_, rec, err := RunRecorded(cfg, 200000)
	if err != nil {
		t.Fatal(err)
	}
	trace := rec.Events
	if len(trace) == 0 || rec.Dropped != 0 {
		t.Fatalf("trace empty or truncated (%d events, %d dropped)",
			len(trace), rec.Dropped)
	}
	type life struct {
		gen, inj, del    *Event
		grants           []Event
		src, dst         int32
		prevGrantCycle   int64
		sawEjectionGrant bool
	}
	lives := map[uint64]*life{}
	for i := range trace {
		e := trace[i]
		l := lives[e.Msg]
		if l == nil {
			l = &life{prevGrantCycle: -1}
			lives[e.Msg] = l
		}
		switch e.Kind {
		case EvGenerate:
			l.gen = &trace[i]
			l.src = e.Node
		case EvInject:
			l.inj = &trace[i]
		case EvGrant:
			l.grants = append(l.grants, e)
			if e.Cycle < l.prevGrantCycle {
				t.Fatalf("msg %d grants out of order", e.Msg)
			}
			l.prevGrantCycle = e.Cycle
		case EvDeliver:
			l.del = &trace[i]
			l.dst = e.Node
		}
	}
	audited := 0
	slots := g.Degree() + 2
	for id, l := range lives {
		if l.del == nil {
			continue // still in flight at the end of the run
		}
		if l.gen == nil || l.inj == nil {
			t.Fatalf("msg %d delivered without generate/inject", id)
		}
		if l.gen.Cycle > l.inj.Cycle || l.inj.Cycle >= l.del.Cycle {
			t.Fatalf("msg %d timeline broken: gen %d inj %d del %d",
				id, l.gen.Cycle, l.inj.Cycle, l.del.Cycle)
		}
		// reconstruct the path from the grant list: h network grants
		// then one ejection grant (the injection grant is the EvInject
		// event itself)
		if len(l.grants) < 1 {
			t.Fatalf("msg %d has %d grants", id, len(l.grants))
		}
		if int(l.inj.VC)/cfg.Spec.V()%slots != g.Degree()+1 || l.inj.Node != l.src {
			t.Fatalf("msg %d inject event not on source injection channel", id)
		}
		first := l.grants[0]
		if first.Node != l.src || int(first.VC)/cfg.Spec.V()%slots >= g.Degree() {
			t.Fatalf("msg %d first grant not a network channel at the source", id)
		}
		last := l.grants[len(l.grants)-1]
		if last.Node != l.dst || int(last.VC)/cfg.Spec.V()%slots != g.Degree() {
			t.Fatalf("msg %d last grant not on destination ejection channel", id)
		}
		hops := len(l.grants) - 1
		wantHops := g.Distance(int(l.src), int(l.dst))
		if hops != wantHops {
			t.Fatalf("msg %d took %d hops, distance is %d", id, hops, wantHops)
		}
		audited++
	}
	if audited < 50 {
		t.Fatalf("only %d complete message lives audited", audited)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 5, Kind: EvGrant, Msg: 3, Node: 2, VC: 7}
	s := e.String()
	if !strings.Contains(s, "grant") || !strings.Contains(s, "msg=3") {
		t.Fatalf("event string %q", s)
	}
	if EvGenerate.String() != "generate" || EvDeliver.String() != "deliver" ||
		EvInject.String() != "inject" || EventKind(9).String() == "" {
		t.Fatal("EventKind strings broken")
	}
}
