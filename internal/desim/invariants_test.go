package desim

import (
	"strings"
	"testing"

	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

func TestParanoidCleanRun(t *testing.T) {
	cfg := s5cfg(routing.EnhancedNbc, 6, 0.01, 32, 3)
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 8000
	cfg.Paranoid = true
	cfg.ParanoidEvery = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("paranoid run failed: %v", err)
	}
	if res.MeasuredDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// corrupt builds a small live network, mutates one field, and expects
// checkInvariants to name the violation.
func corrupt(t *testing.T, mutate func(nw *network), wantSubstr string) {
	t.Helper()
	g := stargraph.MustNew(4)
	nw, err := newNetwork(Config{
		Top:           g,
		Spec:          routing.MustNew(routing.EnhancedNbc, g, 4),
		Rate:          0.02,
		MsgLen:        8,
		Seed:          11,
		WarmupCycles:  0,
		MeasureCycles: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// run a few hundred cycles to populate channels
	for nw.cycle = 0; nw.cycle < 400; nw.cycle++ {
		nw.doArrivals()
		nw.doInjection()
		nw.doRouting()
		nw.doTransfers()
	}
	if err := nw.checkInvariants(); err != nil {
		t.Fatalf("pre-corruption state already invalid: %v", err)
	}
	mutate(nw)
	err = nw.checkInvariants()
	if err == nil {
		t.Fatalf("corruption not detected (wanted %q)", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not mention %q", err, wantSubstr)
	}
}

func findBusyNetworkVC(nw *network) int32 {
	numChans := nw.top.N() * nw.slots
	for ch := 0; ch < numChans; ch++ {
		if ch%nw.slots >= nw.deg {
			continue // skip ejection/injection for determinism
		}
		for vc := 0; vc < nw.v; vc++ {
			gvc := int32(ch*nw.v + vc)
			if nw.owner[gvc] != nil && nw.vcs[gvc].sent > nw.vcs[gvc].drained {
				return gvc
			}
		}
	}
	return -1
}

func TestInvariantDetectsFlitLeak(t *testing.T) {
	corrupt(t, func(nw *network) {
		gvc := findBusyNetworkVC(nw)
		if gvc < 0 {
			t.Skip("no busy VC at chosen cycle")
		}
		nw.vcs[gvc].buf++ // conjure a flit from nowhere
	}, "flit leak")
}

func TestInvariantDetectsCounterDisorder(t *testing.T) {
	corrupt(t, func(nw *network) {
		gvc := findBusyNetworkVC(nw)
		if gvc < 0 {
			t.Skip("no busy VC at chosen cycle")
		}
		nw.vcs[gvc].drained = nw.vcs[gvc].sent + 1
		nw.vcs[gvc].buf = -1
	}, "counters out of order")
}

func TestInvariantDetectsDirtyFreeVC(t *testing.T) {
	corrupt(t, func(nw *network) {
		for gvc := range nw.owner {
			if nw.owner[gvc] == nil {
				nw.vcs[gvc].sent = 3
				return
			}
		}
	}, "not reset")
}

func TestInvariantDetectsStaleOwnedMask(t *testing.T) {
	corrupt(t, func(nw *network) {
		nw.chans[nw.active[0]].ownMask ^= 1 // the transfer loop would skip or invent a VC
	}, "owned mask")
}

func TestInvariantDetectsStaleCachedLength(t *testing.T) {
	corrupt(t, func(nw *network) {
		for gvc, m := range nw.owner {
			if m != nil {
				nw.vcs[gvc].length++
				return
			}
		}
	}, "caches length")
}

func TestInvariantDetectsQueueMismatch(t *testing.T) {
	corrupt(t, func(nw *network) {
		nw.totalQueued += 5
	}, "queue total")
}

func TestInvariantDetectsForeignUpstream(t *testing.T) {
	corrupt(t, func(nw *network) {
		numChans := nw.top.N() * nw.slots
		for ch := 0; ch < numChans; ch++ {
			for vc := 0; vc < nw.v; vc++ {
				gvc := int32(ch*nw.v + vc)
				m := nw.owner[gvc]
				if m == nil || nw.vcs[gvc].prev < 0 || nw.vcs[gvc].sent >= nw.msgLen {
					continue
				}
				other := &message{}
				nw.owner[nw.vcs[gvc].prev] = other
				return
			}
		}
		t.Skip("no linked VC at chosen cycle")
	}, "different message")
}
