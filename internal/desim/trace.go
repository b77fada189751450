package desim

import (
	"fmt"

	"starperf/internal/routing"
)

// EventKind tags a traced simulator event.
type EventKind uint8

// The traced event kinds, in the order they occur in a message's
// life: generation into the source queue, injection-VC acquisition,
// one virtual-channel grant per hop (network channels and the final
// ejection channel), and delivery of the tail flit. EvBlock marks the
// first failed allocation attempt of a hop (one event per blocking
// episode, not per retried cycle).
const (
	EvGenerate EventKind = iota
	EvInject
	EvGrant
	EvDeliver
	EvBlock
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvGenerate:
		return "generate"
	case EvInject:
		return "inject"
	case EvGrant:
		return "grant"
	case EvDeliver:
		return "deliver"
	case EvBlock:
		return "block"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one traced simulator event. For EvGrant, Node is the node
// whose output channel was granted and VC the global virtual-channel
// index; for the other kinds VC is -1 (EvBlock carries the blocked
// router's node and VC -1).
//
// Hop is the zero-based network-hop index the event belongs to (grant
// and block events; the ejection grant carries the full hop count, and
// EvDeliver repeats it). Wait is the number of cycles the header
// waited at the router before this grant (zero when the first attempt
// succeeded) — the per-episode sample behind Result.HopWait, i.e. the
// simulator's P_block·w̄ term of eqs. 6 and 15. Reason is set on
// EvBlock; Misroute marks grants taken on a non-minimal channel.
// StallTrace events reconstructed after the fact leave Hop, Wait and
// Reason zero.
type Event struct {
	Cycle    int64
	Kind     EventKind
	Msg      uint64
	Node     int32
	VC       int32
	Hop      int32
	Wait     int32
	Reason   routing.BlockReason
	Misroute bool
}

func (e Event) String() string {
	s := fmt.Sprintf("c%-6d %-8s msg=%d node=%d vc=%d", e.Cycle, e.Kind, e.Msg, e.Node, e.VC)
	if e.Kind == EvBlock {
		s += fmt.Sprintf(" hop=%d reason=%s", e.Hop, e.Reason)
	}
	return s
}
