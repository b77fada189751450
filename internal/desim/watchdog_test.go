package desim

import (
	"strings"
	"testing"

	"starperf/internal/hypercube"
	"starperf/internal/routing"
)

// wireRingDeadlock hand-builds a genuine circular wait on the 4-cycle
// Q2 that the eligibility rules themselves can never produce: four
// messages around the ring 0→1→3→2→0, each owning the single class-b
// virtual channel the next message's NHop state makes it request. The
// level pattern 0,1,0,1 matches each requester's colour (a colour-1
// router forces level NegHops+1, a colour-0 router level NegHops), so
// every message's unique profitable channel offers exactly one
// eligible VC — the one held by its neighbour. No flit can ever
// advance; only the watchdog can end the run.
func wireRingDeadlock(t *testing.T, cfg Config) *network {
	t.Helper()
	nw, err := newNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := []int{0, 1, 3, 2}
	dims := []int{0, 1, 0, 1} // channel ring[i] → ring[i+1]
	vcOf := []int{0, 1, 0, 1} // class-b level each message holds
	for i := range ring {
		node, next := ring[i], ring[(i+1)%4]
		if got := cfg.Top.Neighbor(node, dims[i]); got != next {
			t.Fatalf("ring wiring: Neighbor(%d,%d) = %d, want %d", node, dims[i], got, next)
		}
		m := nw.newMessage()
		m.id = uint64(i)
		m.src = node
		m.dst = ring[(i+2)%4]
		m.length = 2
		m.genCycle = 0
		m.injCycle = 0
		m.waitStart = -1
		m.measured = true
		m.routing = true
		m.st = routing.State{NegHops: 0, Level: vcOf[i]}
		gvc := nw.occupy(m, nw.chanIdx(node, dims[i]), vcOf[i], -1)
		m.headVC = gvc
		m.curNode = int32(next)
		nw.vcs[gvc].buf = m.length  // head flit buffered at the router
		nw.vcs[gvc].sent = m.length // nothing left to send on this channel
		nw.grantCycle[gvc] = 0
		nw.res.Generated++
		nw.measuredInFly++
		nw.routePending = append(nw.routePending, m)
	}
	return nw
}

func deadlockConfig() Config {
	return Config{
		Top:           hypercube.MustNew(2),
		Spec:          routing.Spec{Kind: routing.NHop, V1: 0, V2: 2, MaxNeg: 1},
		Rate:          0, // traffic is hand-wired, not generated
		MsgLen:        2,
		MeasureCycles: 1,
		DrainCycles:   1 << 20,
	}
}

// TestWatchdogDetectsWiredDeadlock injects an artificial cyclic
// channel dependency and checks the progress watchdog converts it
// into a graceful diagnosis within bounded cycles, instead of burning
// the full million-cycle drain window.
func TestWatchdogDetectsWiredDeadlock(t *testing.T) {
	cfg := deadlockConfig()
	cfg.DeadlockThreshold = 300
	nw := wireRingDeadlock(t, cfg)
	if err := nw.loop(); err != nil {
		t.Fatal(err)
	}
	nw.finish()
	res := &nw.res
	if !res.Deadlocked || !res.Aborted {
		t.Fatalf("watchdog missed the deadlock: Deadlocked=%v Aborted=%v", res.Deadlocked, res.Aborted)
	}
	if res.Cycles > cfg.DeadlockThreshold+16 {
		t.Fatalf("abort took %d cycles, threshold %d", res.Cycles, cfg.DeadlockThreshold)
	}
	if res.StallCycle <= 0 || res.StallCycle >= res.Cycles {
		t.Fatalf("StallCycle %d outside run of %d cycles", res.StallCycle, res.Cycles)
	}
	if !strings.Contains(res.AbortReason, "no flit advanced") {
		t.Fatalf("AbortReason %q", res.AbortReason)
	}
	// the trace names the oldest message's route: generation and
	// injection of message 0 at node 0
	if len(res.StallTrace) < 2 ||
		res.StallTrace[0].Kind != EvGenerate || res.StallTrace[0].Msg != 0 ||
		res.StallTrace[1].Kind != EvInject || res.StallTrace[1].Node != 0 {
		t.Fatalf("StallTrace %+v", res.StallTrace)
	}
	if !res.Saturated() {
		t.Fatal("an aborted run must report Saturated")
	}
}

// TestWatchdogOverAge arms only the per-message age limit on the same
// wired deadlock: with the no-progress threshold out of reach, the
// over-age scan must abort the run near its 1024-cycle cadence and
// without flagging Deadlocked.
func TestWatchdogOverAge(t *testing.T) {
	cfg := deadlockConfig()
	cfg.DeadlockThreshold = 1 << 30
	cfg.MaxMsgAge = 100
	nw := wireRingDeadlock(t, cfg)
	if err := nw.loop(); err != nil {
		t.Fatal(err)
	}
	nw.finish()
	res := &nw.res
	if !res.Aborted || res.Deadlocked {
		t.Fatalf("over-age watchdog: Aborted=%v Deadlocked=%v (%s)",
			res.Aborted, res.Deadlocked, res.AbortReason)
	}
	if res.Cycles > 2*watchdogEvery {
		t.Fatalf("abort took %d cycles, expected within ~%d", res.Cycles, watchdogEvery)
	}
	if !strings.Contains(res.AbortReason, "in flight for") {
		t.Fatalf("AbortReason %q", res.AbortReason)
	}
	if len(res.StallTrace) == 0 {
		t.Fatal("empty StallTrace")
	}
}

// TestWatchdogQuietOnHealthyRun guards against false positives: a
// normal light-load run with the age watchdog armed must complete
// unaborted.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	top := hypercube.MustNew(3)
	res, err := Run(Config{
		Top:           top,
		Spec:          routing.MustNew(routing.EnhancedNbc, top, 4),
		Rate:          0.02,
		MsgLen:        8,
		Seed:          9,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		MaxMsgAge:     20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.Deadlocked {
		t.Fatalf("healthy run aborted: %s", res.AbortReason)
	}
	if res.Misroutes != 0 {
		t.Fatalf("misroutes on a fault-free topology: %d", res.Misroutes)
	}
}
