package desim

import (
	"errors"
	"fmt"
)

// ErrInvariant classifies simulator self-check failures: a wrapped
// ErrInvariant means the wormhole bookkeeping itself is broken (a
// simulator bug), never that the caller's Config was wrong.
var ErrInvariant = errors.New("desim: invariant violated")

// invariantErrf builds one classified invariant-violation error.
func invariantErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvariant, fmt.Sprintf(format, args...))
}

// checkInvariants validates the structural invariants of the
// simulation state; it is run every Config.ParanoidEvery cycles when
// Config.Paranoid is set and returns a descriptive error on the first
// violation. The checks are the formal counterparts of the wormhole
// bookkeeping rules:
//
//   - flits never appear or vanish inside a channel: the downstream
//     buffer population equals sent − drained and respects the buffer
//     capacity (ejection channels deliver immediately and keep an
//     empty buffer);
//   - counters are monotone and bounded: drained ≤ sent ≤ M;
//   - a live chain is linked to its owner: while a channel still has
//     flits to forward, its upstream channel belongs to the same
//     message;
//   - free channels are fully reset, and the source sentinel is
//     intact;
//   - the source-queue accounting is self-consistent.
func (nw *network) checkInvariants() error {
	if nw.vcx[0] != sourceVC {
		return invariantErrf("source sentinel changed to %+v", nw.vcx[0])
	}
	numChans := nw.top.N() * nw.slots
	for ch := 0; ch < numChans; ch++ {
		eject := ch%nw.slots == nw.deg
		for vc := 0; vc < nw.v; vc++ {
			gvc := int32(ch*nw.v + vc)
			m := nw.owner[gvc]
			sent, drained, buf := nw.vcs[gvc].sent, nw.vcs[gvc].drained, nw.vcs[gvc].buf
			if m == nil {
				if sent != 0 || drained != 0 || buf != 0 || nw.vcs[gvc].prev != -1 {
					return invariantErrf("free VC %d not reset (sent=%d drained=%d buf=%d prev=%d)",
						gvc, sent, drained, buf, nw.vcs[gvc].prev)
				}
				continue
			}
			if drained > sent || sent > m.length {
				return invariantErrf("VC %d counters out of order (sent=%d drained=%d M=%d)",
					gvc, sent, drained, m.length)
			}
			if eject {
				if buf != 0 || drained != 0 {
					return invariantErrf("ejection VC %d holds flits (buf=%d drained=%d)",
						gvc, buf, drained)
				}
			} else {
				if buf != sent-drained {
					return invariantErrf("VC %d flit leak (buf=%d sent=%d drained=%d)",
						gvc, buf, sent, drained)
				}
				if buf < 0 || buf > nw.bufCap {
					return invariantErrf("VC %d buffer out of range (%d)", gvc, buf)
				}
			}
			if p := nw.vcs[gvc].prev; p >= 0 && sent < m.length {
				if nw.owner[p] != m {
					return invariantErrf("VC %d upstream %d owned by a different message", gvc, p)
				}
			}
		}
	}
	// active-channel bookkeeping and the owned-VC masks must match
	// ownership exactly
	for ch := 0; ch < numChans; ch++ {
		busy := int16(0)
		var mask uint64
		for vc := 0; vc < nw.v; vc++ {
			gvc := ch*nw.v + vc
			if m := nw.owner[gvc]; m != nil {
				busy++
				mask |= 1 << uint(vc)
				if nw.vcs[gvc].length != m.length {
					return invariantErrf("VC %d caches length %d, owner has %d",
						gvc, nw.vcs[gvc].length, m.length)
				}
			}
		}
		cs := nw.chans[ch]
		if busy != cs.busy {
			return invariantErrf("channel %d busy count %d, owners say %d",
				ch, cs.busy, busy)
		}
		if mask != cs.ownMask {
			return invariantErrf("channel %d owned mask %#x, owners say %#x",
				ch, cs.ownMask, mask)
		}
		pos := nw.activePos[ch]
		switch {
		case busy == 0 && pos != -1:
			return invariantErrf("idle channel %d in active set", ch)
		case busy > 0 && (pos < 0 || int(pos) >= len(nw.active) || nw.active[pos] != int32(ch)):
			return invariantErrf("busy channel %d missing from active set", ch)
		}
	}
	total := 0
	for node, l := range nw.queueLen {
		if l < 0 {
			return invariantErrf("negative queue length at node %d", node)
		}
		cnt := 0
		for m := nw.queueHead[node]; m != nil; m = m.nextQueue {
			cnt++
			if cnt > l {
				break
			}
		}
		if cnt != l {
			return invariantErrf("node %d queue list length %d, counter %d", node, cnt, l)
		}
		total += l
	}
	if total != nw.totalQueued {
		return invariantErrf("queue total %d, counter %d", total, nw.totalQueued)
	}
	if nw.res.Delivered > nw.res.Generated {
		return invariantErrf("delivered %d > generated %d", nw.res.Delivered, nw.res.Generated)
	}
	return nil
}
