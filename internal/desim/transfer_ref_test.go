package desim

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"starperf/internal/faults"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
	"starperf/internal/traffic"
)

// doTransfersRef is the straightforward transfer loop that
// doTransfers replaced, kept as the reference twin of the differential
// tests: the same decisions and the same moves, taken with one
// data-dependent branch per readiness check.
//
// Each active channel moves at most one flit, from the first VC in
// round-robin order from rr that is ready: it still has flits to send,
// its upstream buffer holds one, and its own buffer has room (ejection
// channels deliver at once). Only owned VCs are visited: rotating
// ownMask right by rr puts the owned VCs at or above rr first and
// those below it last, in the order a scan of all V slots would meet
// them.
func (nw *network) doTransfersRef() int {
	moves := nw.moves[:0]
	vcs := nw.vcs
	for _, ch := range nw.active {
		if nw.flapOfChan != nil && !nw.linkUpChan(ch) {
			continue // link transiently down: flits hold their buffers
		}
		cs := &nw.chans[ch]
		eject := cs.kind == ejectChan
		start := int(cs.rr)
		base := int(ch) * nw.v
		for owned := bits.RotateLeft64(cs.ownMask, -start); owned != 0; owned &= owned - 1 {
			vc := (bits.TrailingZeros64(owned) + start) & 63
			vs := &vcs[base+vc]
			if vs.sent >= vs.length || vs.prev >= 0 && vcs[vs.prev].buf == 0 ||
				!eject && vs.buf >= nw.bufCap {
				continue
			}
			moves = append(moves, transfer{gvc: int32(base + vc), eject: eject})
			if vc++; vc == nw.v {
				vc = 0
			}
			cs.rr = uint8(vc)
			break
		}
	}
	nw.moves = moves
	for _, mv := range moves {
		vs := &vcs[mv.gvc]
		vs.sent++
		if p := vs.prev; p >= 0 {
			up := &vcs[p]
			up.buf--
			up.drained++
			if up.drained == up.length {
				nw.freeVC(p)
			}
		}
		if !mv.eject {
			vs.buf++
		} else if vs.sent == vs.length {
			nw.deliver(nw.owner[mv.gvc], mv.gvc)
		}
	}
	return len(moves)
}

// diffCycles is how many cycles the differential tests step.
const diffCycles = 1500

// stepWith runs one cycle's state-changing phases in loop's order,
// moving flits with transfers.
func (nw *network) stepWith(transfers func() int) (int, error) {
	if err := nw.doArrivals(); err != nil {
		return 0, err
	}
	nw.doInjection()
	nw.doRouting()
	moved := transfers()
	nw.doSampling()
	if (nw.cycle+1)%latencyInterval == 0 {
		nw.rollInterval()
	}
	return moved, nil
}

// diffTransfers steps two networks built from cfg for cycles cycles,
// one moving flits with doTransfers and one with doTransfersRef, and
// fails at the first cycle after which their moves, per-VC state,
// owners, per-channel records or active-channel order differ, or
// their final Results do. It returns the fast network's Result.
func diffTransfers(t *testing.T, cfg Config, cycles int64) *Result {
	t.Helper()
	fast, err := newNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < cycles; c++ {
		fast.cycle, ref.cycle = c, c
		nFast, errFast := fast.stepWith(fast.doTransfers)
		nRef, errRef := ref.stepWith(ref.doTransfersRef)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("cycle %d: errors differ: %v vs reference %v", c, errFast, errRef)
		}
		if errFast != nil {
			return &fast.res // both rejected the same arrival
		}
		if nFast != nRef || !slices.Equal(fast.moves, ref.moves) {
			t.Fatalf("cycle %d: moves %v, reference %v", c, fast.moves, ref.moves)
		}
		if fast.vcx[0] != sourceVC {
			t.Fatalf("cycle %d: source sentinel left at %+v", c, fast.vcx[0])
		}
		if i := firstDiff(fast.vcs, ref.vcs); i >= 0 {
			t.Fatalf("cycle %d: VC %d state %+v, reference %+v", c, i, fast.vcs[i], ref.vcs[i])
		}
		if i := firstDiff(fast.chans, ref.chans); i >= 0 {
			t.Fatalf("cycle %d: channel %d record %+v, reference %+v", c, i, fast.chans[i], ref.chans[i])
		}
		if !slices.Equal(fast.active, ref.active) {
			t.Fatalf("cycle %d: active order %v, reference %v", c, fast.active, ref.active)
		}
		for gvc, m := range fast.owner {
			if r := ref.owner[gvc]; (m == nil) != (r == nil) || m != nil && m.id != r.id {
				t.Fatalf("cycle %d: VC %d owners differ", c, gvc)
			}
		}
		if c%16 == 0 {
			if err := fast.checkInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	fast.finish()
	ref.finish()
	if !bytes.Equal(fingerprint(t, &fast.res), fingerprint(t, &ref.res)) {
		t.Fatal("results differ from the reference loop")
	}
	return &fast.res
}

func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// diffConfig builds a differential-test configuration from raw fuzz
// inputs: topo picks S4, Q4, the 4-ary 2-cube or the 4×4 mesh, and
// flaps > 0 degrades it with a seeded fault plan (one failed node
// when flaps is even, plus flaps%3+1 flapping links); policy picks the
// routing algorithm (policy/4) and the selection policy (policy%4); v
// is raised to the algorithm's minimum; lenDist picks fixed, bimodal,
// uniform or clamp-reaching message lengths.
func diffConfig(topo, v, msgLen, bufCap uint8, rate uint16, cutThrough bool, lenDist, flaps, policy uint8, seed uint64) (Config, error) {
	var top topology.Topology
	switch topo % 4 {
	case 0:
		top = stargraph.MustNew(4)
	case 1:
		top = hypercube.MustNew(4)
	case 2:
		top = torus.MustNew(4, 2)
	default:
		top = mesh.MustNew(4, 2)
	}
	if flaps > 0 {
		plan, err := faults.NewPlan(top, seed, faults.Options{
			FailNodes: 1 - int(flaps%2), Flaps: int(flaps%3) + 1,
			FlapPeriod: 96, FlapDown: 24 + int64(flaps%48)})
		if err != nil {
			return Config{}, err
		}
		if top, err = faults.Apply(top, plan); err != nil {
			return Config{}, err
		}
	}
	kind := routing.Kind(policy/4) % 3
	var spec routing.Spec
	var err error
	for vv := int(v%MaxVCs) + 1; vv <= MaxVCs; vv++ {
		if spec, err = routing.New(kind, top, vv); err == nil {
			break
		}
	}
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Top:           top,
		Spec:          spec,
		Policy:        routing.Policy(policy % 4),
		Rate:          float64(rate%1000) / 10000,
		MsgLen:        1 + int(msgLen%32),
		BufCap:        1 + int(bufCap%8),
		CutThrough:    cutThrough,
		Seed:          seed,
		WarmupCycles:  200,
		MeasureCycles: 1000,
	}
	if cutThrough {
		cfg.BufCap = max(cfg.BufCap, cfg.MsgLen)
	}
	switch lenDist % 4 {
	case 1:
		cfg.LenDist = traffic.BimodalLen{Short: 2, Long: 24, PLong: 0.25}
	case 2:
		cfg.LenDist = traffic.UniformLen{Min: 1, Max: 40}
	case 3:
		cfg.LenDist = traffic.BimodalLen{Short: 4, Long: 20000, PLong: 0.01}
	}
	return cfg, nil
}

// TestTransfersMatchReference steps the fast and the reference
// transfer loops side by side over the golden matrix's corners and
// the jobs-async job.
func TestTransfersMatchReference(t *testing.T) {
	cases := []struct {
		name                    string
		topo, v, msgLen, bufCap uint8
		rate                    uint16
		cutThrough              bool
		lenDist, flaps, policy  uint8
		seed                    uint64
		cycles                  int64 // diffCycles when 0
	}{
		{"S4/V4", 0, 3, 7, 1, 200, false, 0, 0, 8, 1, 0},
		{"S4/V64-RandomAny", 0, 63, 7, 1, 800, false, 0, 0, 9, 1, 0},
		{"S4/V16-near-saturation", 0, 15, 7, 1, 999, false, 0, 0, 8, 1, 0},
		{"S4/BufCap1", 0, 3, 7, 0, 600, false, 0, 0, 8, 1, 0},
		{"S4/CutThrough", 0, 3, 7, 1, 300, true, 0, 0, 8, 1, 0},
		// long enough for a clamped 16384-flit message to be delivered
		{"S4/LenClamp", 0, 3, 7, 1, 100, false, 3, 0, 8, 1, 20000},
		{"S4/Bimodal-NHop", 0, 3, 7, 1, 200, false, 1, 0, 0, 1, 0},
		{"S4/jobs-async", 0, 5, 31, 1, 50, false, 0, 0, 8, 401, 0},
		{"S4-faulted/flaps", 0, 5, 7, 1, 300, false, 0, 3, 8, 97, 0},
		{"Q4/Nbc-LowestEscapeFirst", 1, 3, 15, 2, 300, false, 2, 0, 6, 1, 0},
		{"torus4x4", 2, 5, 7, 1, 300, false, 0, 0, 8, 1, 0},
		{"mesh4x4-faulted-FirstProfitable", 3, 5, 7, 1, 200, false, 0, 2, 11, 5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := diffConfig(tc.topo, tc.v, tc.msgLen, tc.bufCap, tc.rate, tc.cutThrough,
				tc.lenDist, tc.flaps, tc.policy, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			cycles := tc.cycles
			if cycles == 0 {
				cycles = diffCycles
			}
			res := diffTransfers(t, cfg, cycles)
			t.Logf("delivered %d, multiplexing %.2f, blocked %d/%d, misroutes %d",
				res.Delivered, res.Multiplexing, res.BlockedAttempts, res.Attempts, res.Misroutes)
			if res.Delivered == 0 {
				t.Fatal("no deliveries: the loops were never compared under traffic")
			}
		})
	}
}

// FuzzTransfers drives the differential test over topology, V (1–64),
// message length, BufCap, rate, cut-through, length distribution,
// routing algorithm and policy, and flapping links.
func FuzzTransfers(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(7), uint8(1), uint16(200), false, uint8(0), uint8(0), uint8(8), uint64(1))
	f.Add(uint8(0), uint8(63), uint8(7), uint8(1), uint16(800), false, uint8(0), uint8(0), uint8(9), uint64(2))
	f.Add(uint8(1), uint8(15), uint8(15), uint8(0), uint16(500), false, uint8(2), uint8(0), uint8(4), uint64(3))
	f.Add(uint8(2), uint8(5), uint8(7), uint8(7), uint16(400), true, uint8(0), uint8(1), uint8(8), uint64(4))
	f.Add(uint8(3), uint8(7), uint8(31), uint8(1), uint16(300), false, uint8(3), uint8(2), uint8(10), uint64(5))
	f.Fuzz(func(t *testing.T, topo, v, msgLen, bufCap uint8, rate uint16, cutThrough bool, lenDist, flaps, policy uint8, seed uint64) {
		cfg, err := diffConfig(topo, v, msgLen, bufCap, rate, cutThrough, lenDist, flaps, policy, seed)
		if err != nil {
			t.Skip(err)
		}
		diffTransfers(t, cfg, diffCycles)
	})
}
