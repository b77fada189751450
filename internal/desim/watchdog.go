package desim

import "fmt"

// The progress watchdog ends runs that can no longer produce useful
// measurements — a global no-flit-advanced window (the deadlock
// detector in the main loop) or a single over-age message
// (Config.MaxMsgAge; livelock and fault-induced starvation) — and
// leaves a diagnosis in the Result instead of burning cycles to the
// drain limit: Aborted, AbortReason, StallCycle and the oldest
// in-flight message's reconstructed route in StallTrace.

// watchdogEvery is the cadence of the over-age scan. The scan walks
// the per-VC owner table (O(N·V) pointers), so amortised over the
// window it costs well under one owner probe per cycle.
const watchdogEvery = 1024

// abortRun records a graceful watchdog abort. The caller returns from
// the event loop right after; finish() then seals the usual
// statistics so partial measurements stay readable.
func (nw *network) abortRun(reason string) {
	nw.res.Aborted = true
	nw.res.AbortReason = reason
	nw.res.StallCycle = nw.cycle
	nw.res.StallTrace = nw.stallTrace()
}

// checkOverAge fires the over-age half of the watchdog: true aborts
// the run because some message has been in the network longer than
// Config.MaxMsgAge cycles.
func (nw *network) checkOverAge() bool {
	m := nw.oldestInFlight()
	if m == nil {
		return false
	}
	age := nw.cycle - m.injCycle
	if age <= nw.cfg.MaxMsgAge {
		return false
	}
	nw.abortRun(fmt.Sprintf("message %d (node %d → %d) in flight for %d cycles (limit %d)",
		m.id, m.src, m.dst, age, nw.cfg.MaxMsgAge))
	return true
}

// oldestInFlight returns the injected message that has been in the
// network longest (ties broken by generation id, so the answer is
// unique and deterministic), or nil when nothing is in flight. Every
// in-flight message owns at least its head virtual channel, so the
// owner table enumerates them all.
func (nw *network) oldestInFlight() *message {
	var oldest *message
	for _, m := range nw.owner {
		if m == nil || m == oldest {
			continue
		}
		if oldest == nil || m.injCycle < oldest.injCycle ||
			(m.injCycle == oldest.injCycle && m.id < oldest.id) {
			oldest = m
		}
	}
	return oldest
}

// stallTrace reconstructs the route of the oldest in-flight message
// from the live virtual-channel chains — the same Event vocabulary the
// Observer receives, but rebuilt after the fact so it is available
// whether or not one is attached: one EvGenerate, one
// EvInject, then an EvGrant per still-held channel in acquisition
// order, each stamped with the cycle the grant happened.
func (nw *network) stallTrace() []Event {
	m := nw.oldestInFlight()
	if m == nil {
		return nil
	}
	var chain []int32 // head channel first, injection channel last
	for gvc := m.headVC; gvc >= 0; gvc = nw.vcs[gvc].prev {
		chain = append(chain, gvc)
	}
	ev := make([]Event, 0, len(chain)+1)
	ev = append(ev, Event{Cycle: m.genCycle, Kind: EvGenerate, Msg: m.id, Node: int32(m.src), VC: -1})
	for i := len(chain) - 1; i >= 0; i-- {
		gvc := chain[i]
		if i == len(chain)-1 {
			ev = append(ev, Event{Cycle: m.injCycle, Kind: EvInject, Msg: m.id,
				Node: int32(m.src), VC: gvc})
			continue
		}
		ev = append(ev, Event{Cycle: nw.grantCycle[gvc], Kind: EvGrant, Msg: m.id,
			Node: int32(nw.nodeOfChan(gvc / int32(nw.v))), VC: gvc})
	}
	return ev
}
