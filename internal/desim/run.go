package desim

import (
	"fmt"
	"math"
	"math/bits"

	"starperf/internal/cfgerr"
	"starperf/internal/routing"
	"starperf/internal/stats"
	"starperf/internal/topology"
	"starperf/internal/traffic"
)

// Run executes one simulation described by cfg and returns its
// measurements. It is deterministic for a fixed cfg, and byte-for-byte
// independent of whether a Config.Observer is attached.
func Run(cfg Config) (*Result, error) {
	nw, err := newNetwork(cfg)
	if err != nil {
		return nil, err
	}
	if nw.obs != nil {
		nw.obs.BeginRun(RunInfo{
			Topology: nw.top.Name(),
			Nodes:    nw.top.N(),
			Degree:   nw.deg,
			Slots:    nw.slots,
			V:        nw.v,
			Cfg:      nw.cfg,
			Probe:    nw,
		})
	}
	if err := nw.loop(); err != nil {
		return nil, err
	}
	nw.finish()
	if nw.obs != nil {
		nw.obs.EndRun(&nw.res)
	}
	return &nw.res, nil
}

func newNetwork(cfg Config) (*network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BufCap == 0 {
		cfg.BufCap = 2
		if cfg.CutThrough {
			cfg.BufCap = cfg.MsgLen
		}
	}
	if cfg.CutThrough && cfg.BufCap < cfg.MsgLen {
		return nil, cfgerr.Errorf("desim: cut-through needs BufCap ≥ MsgLen (%d < %d)",
			cfg.BufCap, cfg.MsgLen)
	}
	if cfg.BufCap < 1 || cfg.BufCap > 1<<14 {
		return nil, cfgerr.Errorf("desim: buffer depth %d out of range", cfg.BufCap)
	}
	if cfg.DrainCycles == 0 {
		cfg.DrainCycles = 4 * (cfg.WarmupCycles + cfg.MeasureCycles)
	}
	if cfg.DeadlockThreshold == 0 {
		cfg.DeadlockThreshold = 50000
	}
	top := cfg.Top
	n := top.N()
	deg := top.Degree()
	v := cfg.Spec.V()
	slots := deg + 2
	numVC := n * slots * v
	nw := &network{
		cfg:          cfg,
		top:          top,
		spec:         cfg.Spec,
		deg:          deg,
		slots:        slots,
		v:            v,
		bufCap:       int16(cfg.BufCap),
		msgLen:       int16(cfg.MsgLen),
		pattern:      cfg.Pattern,
		owner:        make([]*message, numVC),
		vcx:          make([]vcState, numVC+1),
		chans:        make([]chanState, n*slots),
		moves:        make([]transfer, 0, n*slots),
		queueHead:    make([]*message, n),
		queueTail:    make([]*message, n),
		queueLen:     make([]int, n),
		rng:          traffic.NewRNG(cfg.Seed),
		dimBuf:       make([]int, 0, deg),
		eligBuf:      make([]int, 0, v),
		pairBuf:      make([]pair, 0, deg*v),
		obs:          cfg.Observer,
		measureStart: cfg.WarmupCycles,
		measureEnd:   cfg.WarmupCycles + cfg.MeasureCycles,
	}
	nw.vcs = nw.vcx[1:]
	nw.vcx[0] = sourceVC
	for i := range nw.vcs {
		nw.vcs[i].prev = -1
	}
	if nw.pattern == nil {
		nw.pattern = traffic.Uniform{N: n}
	}
	if cfg.Rate > 0 {
		nw.arrivals = make([]traffic.Arrivals, n)
		nw.nextAt = make([]float64, n) // 0: poll every node at cycle 0
		for i := range nw.arrivals {
			rng := nw.rng.Split()
			if cfg.NewArrivals != nil {
				nw.arrivals[i] = cfg.NewArrivals(rng, cfg.Rate)
			} else {
				nw.arrivals[i] = traffic.NewPoisson(rng, cfg.Rate)
			}
		}
	}
	nw.res.VCBusyHist = make([]uint64, v+1)
	nw.res.ClassBLevelUse = make([]uint64, cfg.Spec.V2)
	nw.res.LatencyHist = stats.NewHistogram(latencyHistBins)
	nw.grantCount = make([]uint32, n*slots)
	nw.grantCycle = make([]int64, numVC)
	nw.activePos = make([]int32, n*slots)
	for i := range nw.activePos {
		nw.activePos[i] = -1
	}
	nw.chanExists = make([]bool, n*slots)
	for node := 0; node < n; node++ {
		for slot := 0; slot < slots; slot++ {
			ch := int(nw.chanIdx(node, slot))
			nw.chanExists[ch] = slot >= deg || topology.HasChannel(top, node, slot)
			cs := &nw.chans[ch]
			cs.room = nw.bufCap
			switch {
			case slot == deg:
				cs.kind, cs.room = ejectChan, math.MaxInt16
			case slot > deg:
				cs.kind = injectChan
			}
		}
	}
	if err := nw.wireFaults(); err != nil {
		return nil, err
	}
	return nw, nil
}

// wireFaults resolves the fault view of the topology, when it has
// one: per-channel transient flap windows (ChannelFlapper), the node
// liveness mask and a live-nodes-only default traffic pattern
// (NodeHealth), and the injection-time reachability check. Fault-free
// topologies leave every field nil and the hot loops untouched.
func (nw *network) wireFaults() error {
	n := nw.top.N()
	if f, ok := nw.top.(ChannelFlapper); ok {
		for node := 0; node < n; node++ {
			for dim := 0; dim < nw.deg; dim++ {
				period, down, phase, has := f.FlapWindow(node, dim)
				if !has {
					continue
				}
				if period <= 0 || down < 0 || down >= period || phase < 0 {
					return cfgerr.Errorf("desim: invalid flap window %d/%d/%d on channel (%d,%d)",
						down, period, phase, node, dim)
				}
				if nw.flapOfChan == nil {
					nw.flapOfChan = make([]int32, n*nw.slots)
					for i := range nw.flapOfChan {
						nw.flapOfChan[i] = -1
					}
				}
				nw.flapOfChan[nw.chanIdx(node, dim)] = int32(len(nw.flapWindows))
				nw.flapWindows = append(nw.flapWindows, flapWindow{period, down, phase})
			}
		}
	}
	if h, ok := nw.top.(NodeHealth); ok {
		nw.checkReach = true
		nw.nodeUp = make([]bool, n)
		var live []int
		for node := 0; node < n; node++ {
			nw.nodeUp[node] = h.NodeUp(node)
			if nw.nodeUp[node] {
				live = append(live, node)
			}
		}
		if nw.cfg.Rate > 0 && len(live) < 2 {
			return cfgerr.Errorf("desim: %s has %d live node(s); traffic needs at least 2",
				nw.top.Name(), len(live))
		}
		if nw.cfg.Pattern == nil {
			nw.pattern = uniformLive{nodes: live}
		}
		// dead nodes generate nothing: drop their arrival processes
		for node := 0; node < n && nw.arrivals != nil; node++ {
			if !nw.nodeUp[node] {
				nw.arrivals[node] = nil
			}
		}
	}
	return nil
}

// uniformLive draws destinations uniformly over the live nodes of a
// degraded topology, excluding the source — the fault-aware
// counterpart of traffic.Uniform.
type uniformLive struct{ nodes []int }

// Name identifies the pattern.
func (u uniformLive) Name() string { return "uniform-live" }

// Destination draws a live destination other than src.
func (u uniformLive) Destination(src int, rng *traffic.RNG) int {
	for {
		d := u.nodes[rng.Intn(len(u.nodes))]
		if d != src {
			return d
		}
	}
}

// linkUpChan reports whether channel ch's physical link is up this
// cycle (always true without a flap schedule).
func (nw *network) linkUpChan(ch int32) bool {
	fi := nw.flapOfChan[ch]
	if fi < 0 {
		return true
	}
	w := nw.flapWindows[fi]
	return (nw.cycle+w.phase)%w.period >= w.down
}

func (nw *network) loop() error {
	limit := nw.measureEnd + nw.cfg.DrainCycles
	paranoidEvery := nw.cfg.ParanoidEvery
	if paranoidEvery <= 0 {
		paranoidEvery = 64
	}
	for nw.cycle = 0; ; nw.cycle++ {
		if err := nw.doArrivals(); err != nil {
			return err
		}
		grants := nw.doInjection()
		grants += nw.doRouting()
		moved := nw.doTransfers()
		nw.doSampling()
		if nw.obs != nil {
			nw.obs.EndCycle(nw.cycle)
		}
		if nw.cfg.Paranoid && nw.cycle%paranoidEvery == 0 {
			if err := nw.checkInvariants(); err != nil {
				return fmt.Errorf("cycle %d: %w", nw.cycle, err)
			}
		}
		if (nw.cycle+1)%latencyInterval == 0 {
			nw.rollInterval()
		}
		if moved+grants > 0 {
			nw.lastProgress = nw.cycle
		} else if nw.res.Generated > nw.res.Delivered+uint64(nw.totalQueued) &&
			nw.cycle-nw.lastProgress > nw.cfg.DeadlockThreshold {
			nw.res.Deadlocked = true
			nw.abortRun(fmt.Sprintf("no flit advanced for %d cycles with %d messages in flight",
				nw.cycle-nw.lastProgress,
				nw.res.Generated-nw.res.Delivered-uint64(nw.totalQueued)))
			return nil
		}
		if nw.cfg.MaxMsgAge > 0 && (nw.cycle+1)%watchdogEvery == 0 && nw.checkOverAge() {
			return nil
		}
		if nw.cycle+1 >= nw.measureEnd {
			if nw.measuredInFly == 0 {
				nw.res.Drained = true
				return nil
			}
			if nw.cycle+1 >= limit {
				nw.res.Drained = nw.measuredInFly == 0
				return nil
			}
		}
	}
}

// rollInterval closes the current latency interval, carrying the
// previous mean forward through empty intervals.
func (nw *network) rollInterval() {
	mean := math.NaN()
	if nw.intervalCount > 0 {
		mean = nw.intervalSum / float64(nw.intervalCount)
	} else if n := len(nw.res.IntervalLatency); n > 0 {
		mean = nw.res.IntervalLatency[n-1]
	}
	if !math.IsNaN(mean) {
		nw.res.IntervalLatency = append(nw.res.IntervalLatency, mean)
	}
	nw.intervalSum, nw.intervalCount = 0, 0
}

func (nw *network) finish() {
	nw.res.Cycles = nw.cycle + 1
	nw.res.SuggestedWarmup = -1
	if d, ok := stats.MSER(nw.res.IntervalLatency); ok {
		nw.res.SuggestedWarmup = int64(d) * latencyInterval
	}
	nw.res.EndQueueLen = nw.totalQueued
	nw.res.Nodes = nw.top.N()
	var sumV, sumV2 float64
	for v, c := range nw.res.VCBusyHist {
		sumV += float64(v) * float64(c)
		sumV2 += float64(v*v) * float64(c)
	}
	if sumV > 0 {
		nw.res.Multiplexing = sumV2 / sumV
	} else {
		nw.res.Multiplexing = 1
	}
	// per-channel balance over existing network channels only
	var st stats.Stream
	for ch, c := range nw.grantCount {
		if nw.chans[ch].kind == netChan && nw.chanExists[ch] {
			st.Add(float64(c))
		}
	}
	if st.Mean() > 0 {
		nw.res.ChannelGrantCV = st.StdDev() / st.Mean()
		window := nw.cycle + 1 - nw.measureStart
		if window > 0 {
			nw.res.ChannelRate = st.Mean() / float64(window)
		}
	}
}

// newMessage takes a message from the free list or allocates one.
func (nw *network) newMessage() *message {
	if m := nw.freeList; m != nil {
		nw.freeList = m.nextQueue
		*m = message{}
		return m
	}
	return &message{}
}

// doArrivals moves every arrival due by this cycle into its node's
// source queue, visiting the nodes in index order. Cycles before the
// cached earliest pending arrival return at once, and a node whose
// cached next arrival is still ahead is not polled; NextArrival is a
// pure getter, so skipping those polls changes nothing.
func (nw *network) doArrivals() error {
	now := float64(nw.cycle)
	if nw.arrivals == nil || now < nw.nextArrival {
		return nil
	}
	next := math.Inf(1)
	for node, t := range nw.nextAt {
		if t > now {
			next = min(next, t)
			continue
		}
		p := nw.arrivals[node]
		if p == nil { // failed node: generates no traffic
			nw.nextAt[node] = math.Inf(1)
			continue
		}
		for p.NextArrival() <= now {
			p.Pop()
			m := nw.newMessage()
			m.src = node
			m.dst = nw.pattern.Destination(node, nw.rng)
			if nw.checkReach && nw.top.Distance(node, m.dst) < 0 {
				// reject at injection: the destination is stranded
				// by the fault plan and the message could never
				// release the channels it would acquire
				return &routing.UnreachableError{Top: nw.top.Name(), Src: node, Dst: m.dst}
			}
			m.length = nw.msgLen
			if nw.cfg.LenDist != nil {
				l := nw.cfg.LenDist.Sample(nw.rng)
				if l < 1 {
					l = 1
				}
				if l > 1<<14 {
					l = 1 << 14
				}
				m.length = int16(l)
			}
			m.genCycle = nw.cycle
			m.measured = nw.cycle >= nw.measureStart && nw.cycle < nw.measureEnd
			m.id = nw.res.Generated
			nw.res.Generated++
			if nw.obs != nil {
				nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvGenerate, Msg: m.id,
					Node: int32(node), VC: -1})
			}
			if m.measured {
				nw.measuredInFly++
			}
			nw.pushQueue(node, m)
		}
		t = p.NextArrival()
		nw.nextAt[node] = t
		next = min(next, t)
	}
	nw.nextArrival = next
	return nil
}

func (nw *network) pushQueue(node int, m *message) {
	if nw.queueTail[node] == nil {
		nw.queueHead[node] = m
	} else {
		nw.queueTail[node].nextQueue = m
	}
	nw.queueTail[node] = m
	m.nextQueue = nil
	nw.queueLen[node]++
	nw.totalQueued++
	if nw.queueLen[node] > nw.res.MaxQueueLen {
		nw.res.MaxQueueLen = nw.queueLen[node]
	}
}

func (nw *network) popQueue(node int) *message {
	m := nw.queueHead[node]
	nw.queueHead[node] = m.nextQueue
	if nw.queueHead[node] == nil {
		nw.queueTail[node] = nil
	}
	m.nextQueue = nil
	nw.queueLen[node]--
	nw.totalQueued--
	return m
}

// doInjection grants injection-channel VCs to source-queue heads.
// Nodes are visited from a rotating offset so no node is permanently
// favoured by iteration order.
func (nw *network) doInjection() int {
	if nw.totalQueued == 0 {
		return 0
	}
	n := nw.top.N()
	start := int(nw.cycle % int64(n))
	grants := 0
	for k := 0; k < n; k++ {
		node := start + k
		if node >= n {
			node -= n
		}
		m := nw.queueHead[node]
		if m == nil {
			continue
		}
		ch := nw.chanIdx(node, nw.deg+1)
		vc := nw.lowestFree(ch)
		if vc < 0 {
			continue
		}
		nw.popQueue(node)
		m.injCycle = nw.cycle
		m.curNode = int32(node)
		m.st = routing.InitialState()
		gvc := nw.occupy(m, ch, vc, -1)
		m.headVC = gvc
		if m.measured {
			nw.res.QueueTime.Add(float64(nw.cycle - m.genCycle))
		}
		if nw.obs != nil {
			nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvInject, Msg: m.id,
				Node: int32(node), VC: gvc})
		}
		m.waitStart = -1
		m.routing = true
		nw.routePending = append(nw.routePending, m)
		grants++
	}
	return grants
}

// doRouting attempts next-channel allocation for every message whose
// head flit is buffered at a router. The pending list is compacted in
// place; a rotating offset removes ordering bias between messages.
func (nw *network) doRouting() int {
	if len(nw.routePending) == 0 {
		return 0
	}
	grants := 0
	pend := nw.routePending
	// rotate the processing origin to avoid systematic priority
	if len(pend) > 1 {
		off := int(nw.cycle % int64(len(pend)))
		rotate(pend, off)
	}
	out := pend[:0]
	for _, m := range pend {
		hv := m.headVC
		if nw.vcs[hv].drained != 0 || nw.vcs[hv].buf == 0 {
			// head flit not (yet) buffered at the router
			out = append(out, m)
			continue
		}
		if nw.allocate(m) {
			grants++
			if !m.routing {
				continue // ejection granted; no more routing needed
			}
		}
		out = append(out, m)
	}
	nw.routePending = out
	return grants
}

func rotate(s []*message, k int) {
	if k == 0 {
		return
	}
	reverse(s[:k])
	reverse(s[k:])
	reverse(s)
}

func reverse(s []*message) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// allocate tries to acquire the next virtual channel for m, whose
// head flit sits at router m.curNode. It returns true on a grant.
func (nw *network) allocate(m *message) bool {
	node := int(m.curNode)
	if node == m.dst {
		// ejection channel: all V virtual channels are eligible
		ch := nw.chanIdx(node, nw.deg)
		if vc := nw.lowestFree(ch); vc >= 0 {
			wait := int64(0)
			if m.waitStart >= 0 {
				wait = nw.cycle - m.waitStart
				m.waitStart = -1
			}
			gvc := nw.grantVC(m, ch, vc)
			m.routing = false
			if nw.obs != nil {
				nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvGrant, Msg: m.id,
					Node: int32(node), VC: gvc, Hop: int32(m.hops), Wait: int32(wait)})
			}
			return true
		}
		// Every ejection VC is occupied. One EvBlock per blocking
		// episode (first failed attempt), mirroring the network hops;
		// waitStart here feeds only the Wait of the eventual ejection
		// grant, never Result.HopWait.
		if m.waitStart < 0 {
			m.waitStart = nw.cycle
			if nw.obs != nil {
				nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvBlock, Msg: m.id,
					Node: int32(node), VC: -1, Hop: int32(m.hops),
					Reason: routing.BlockEjectionBusy})
			}
		}
		return false
	}

	nw.res.Attempts++
	firstAttempt := m.waitStart < 0
	if firstAttempt {
		m.waitStart = nw.cycle
	}
	dims := nw.top.ProfitableDims(node, m.dst, nw.dimBuf[:0])
	if nw.flapOfChan != nil {
		// transient faults: a profitable channel whose link is down
		// this cycle cannot be granted
		live := dims[:0]
		for _, dim := range dims {
			if nw.linkUpChan(nw.chanIdx(node, dim)) {
				live = append(live, dim)
			}
		}
		dims = live
	}
	if nw.cfg.Policy == routing.FirstProfitable && len(dims) > 1 {
		dims = dims[:1] // deterministic minimal path baseline
	}
	color := nw.top.Color(node)
	hopNeg := color == 1
	nextColor := 1 - color
	misroute := false
	pairs := nw.pairBuf[:0]
	if len(dims) > 0 {
		dRem := nw.top.Distance(node, m.dst) - 1
		elig := nw.spec.EligibleVCs(m.st, hopNeg, nextColor, dRem, nw.eligBuf[:0])
		for _, dim := range dims {
			owned := nw.chans[nw.chanIdx(node, dim)].ownMask
			for _, vc := range elig {
				if owned&(1<<uint(vc)) == 0 {
					pairs = append(pairs, pair{dim: dim, vc: vc})
				}
			}
		}
	} else if nw.flapOfChan != nil {
		// Every profitable channel of this hop is transiently down:
		// fall back to a misroute over the live non-minimal channels.
		// routing.MisrouteVCs only admits hops with class-b headroom
		// for the longer remaining journey, so deadlock freedom is
		// preserved; with no headroom the message waits for a link to
		// come back up (flaps always do: Down < Period).
		misroute = true
		for dim := 0; dim < nw.deg; dim++ {
			ch := nw.chanIdx(node, dim)
			if !nw.chanExists[ch] || !nw.linkUpChan(ch) {
				continue
			}
			nbr := nw.top.Neighbor(node, dim)
			if nbr < 0 {
				continue
			}
			dRem := nw.top.Distance(nbr, m.dst)
			if dRem < 0 {
				continue
			}
			elig := nw.spec.MisrouteVCs(m.st, hopNeg, nextColor, dRem, nw.eligBuf[:0])
			owned := nw.chans[ch].ownMask
			for _, vc := range elig {
				if owned&(1<<uint(vc)) == 0 {
					pairs = append(pairs, pair{dim: dim, vc: vc})
				}
			}
		}
	}
	nw.pairBuf = pairs[:0]
	if len(pairs) == 0 {
		nw.res.BlockedAttempts++
		// One EvBlock per blocking episode. An empty dims means the
		// flap filter (or the misroute headroom rule) removed every
		// candidate link — a fault denial, not the VC contention the
		// model's P_block describes.
		if nw.obs != nil && firstAttempt {
			reason := routing.BlockVCsBusy
			if len(dims) == 0 {
				reason = routing.BlockLinkDown
			}
			nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvBlock, Msg: m.id,
				Node: int32(node), VC: -1, Hop: int32(m.hops), Reason: reason})
		}
		return false
	}

	chosen := nw.choose(pairs)
	vc := chosen.vc
	if misroute {
		nw.res.Misroutes++
	}
	if nw.spec.IsClassA(vc) {
		nw.res.ClassAUse++
	} else {
		nw.res.ClassBUse++
		nw.res.ClassBLevelUse[nw.spec.LevelOf(vc)]++
	}
	if m.measured {
		nw.res.HopWait.Add(float64(nw.cycle - m.waitStart))
	}
	wait := nw.cycle - m.waitStart
	hop := int32(m.hops)
	m.waitStart = -1
	m.st = nw.spec.Advance(m.st, hopNeg, vc)
	m.curNode = int32(nw.top.Neighbor(node, chosen.dim))
	ch := nw.chanIdx(node, chosen.dim)
	if nw.cycle >= nw.measureStart {
		nw.grantCount[ch]++
	}
	gvc := nw.grantVC(m, ch, vc)
	m.hops++
	if nw.obs != nil {
		nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvGrant, Msg: m.id,
			Node: int32(node), VC: gvc, Hop: hop, Wait: int32(wait), Misroute: misroute})
	}
	return true
}

// choose applies the configured selection policy to the free eligible
// (channel, vc) pairs.
func (nw *network) choose(pairs []pair) pair {
	switch nw.cfg.Policy {
	case routing.RandomAny:
		return pairs[nw.rng.Intn(len(pairs))]
	case routing.LowestEscapeFirst:
		best, bestLevel := -1, 1<<30
		for i, p := range pairs {
			if nw.spec.IsClassA(p.vc) {
				continue
			}
			if l := nw.spec.LevelOf(p.vc); l < bestLevel {
				best, bestLevel = i, l
			}
		}
		if best >= 0 {
			return pairs[best]
		}
		return pairs[nw.rng.Intn(len(pairs))]
	default: // PreferClassA
		nA := 0
		for i, p := range pairs {
			if nw.spec.IsClassA(p.vc) {
				pairs[nA], pairs[i] = pairs[i], pairs[nA]
				nA++
			}
		}
		if nA > 0 {
			return pairs[nw.rng.Intn(nA)]
		}
		best, bestLevel := -1, 1<<30
		count := 0
		for i, p := range pairs {
			l := nw.spec.LevelOf(p.vc)
			switch {
			case l < bestLevel:
				best, bestLevel, count = i, l, 1
			case l == bestLevel:
				// reservoir-sample among equal-level channels
				count++
				if nw.rng.Intn(count) == 0 {
					best = i
				}
			}
		}
		return pairs[best]
	}
}

// grantVC records that m now owns virtual channel vc of channel ch,
// linked after its previous head channel, and returns the global VC
// index. Event emission stays with the callers in allocate, which
// know the hop index and accumulated wait.
func (nw *network) grantVC(m *message, ch int32, vc int) int32 {
	gvc := nw.occupy(m, ch, vc, m.headVC)
	m.headVC = gvc
	nw.grantCycle[gvc] = nw.cycle
	return gvc
}

// occupy hands virtual channel vc of channel ch to m, linked after
// the upstream VC prev (−1 for an injection VC), activating the
// channel when it was idle, and returns the global VC index.
func (nw *network) occupy(m *message, ch int32, vc int, prev int32) int32 {
	gvc := ch*int32(nw.v) + int32(vc)
	nw.owner[gvc] = m
	nw.vcs[gvc] = vcState{prev: prev, length: m.length}
	cs := &nw.chans[ch]
	cs.ownMask |= 1 << uint(vc)
	cs.busy++
	if cs.busy == 1 {
		nw.activePos[ch] = int32(len(nw.active))
		nw.active = append(nw.active, ch)
	}
	return gvc
}

// lowestFree returns the lowest-numbered free VC of channel ch, or −1
// when all are owned.
func (nw *network) lowestFree(ch int32) int {
	vc := bits.TrailingZeros64(^nw.chans[ch].ownMask)
	if vc >= nw.v {
		return -1
	}
	return vc
}

// doTransfers performs the per-cycle flit movement. Decisions are
// taken against the cycle-start state (two-phase update), so a flit
// advances at most one channel per cycle; with the default 2-flit
// buffers a wormhole streams at full channel rate.
//
// Each active channel moves at most one flit, from the first VC in
// round-robin order from rr that is ready: it still has flits to send,
// its upstream buffer holds one, and its own buffer has room (ejection
// channels deliver at once). Only owned VCs are visited: rotating
// ownMask right by rr puts the owned VCs at or above rr first and
// those below it last, in the order a scan of all V slots would meet
// them.
//
// The flit path takes no data-dependent branch in the common case.
// The three readiness tests are sign bits ANDed into one (ready), an
// injection VC's upstream is the source sentinel, whose buffer always
// holds a flit, and an ejection channel's room is unbounded. A channel
// with one owned VC, the usual case below saturation, writes its move
// unconditionally and counts it by ready, and moves rr by mask.
// Channels with several owned VCs scan them in round-robin order.
func (nw *network) doTransfers() int {
	vcx := nw.vcx
	chans := nw.chans
	moves := nw.moves[:cap(nw.moves)]
	v := int32(nw.v)
	nm := 0
	active := nw.active
	if nw.flapOfChan != nil {
		active = nw.linkUpActive()
	}
	for _, ch := range active {
		cs := &chans[ch]
		base := ch * v
		if own := cs.ownMask; own&(own-1) == 0 {
			vc := int32(bits.TrailingZeros64(own))
			vs := &vcx[base+vc+1]
			ready := readyBit(vs, vcx, cs.room)
			moves[nm] = transfer{gvc: base + vc, eject: cs.kind == ejectChan}
			nm += int(ready)
			vc++
			vc &= (vc - v) >> 31 // V wraps to 0
			cs.rr ^= (cs.rr ^ uint8(vc)) & -uint8(ready)
			continue
		}
		start := int32(cs.rr)
		for owned := bits.RotateLeft64(cs.ownMask, -int(start)); owned != 0; owned &= owned - 1 {
			vc := (int32(bits.TrailingZeros64(owned)) + start) & 63
			vs := &vcx[base+vc+1]
			if readyBit(vs, vcx, cs.room) == 0 {
				continue
			}
			moves[nm] = transfer{gvc: base + vc, eject: cs.kind == ejectChan}
			nm++
			if vc++; vc == v {
				vc = 0
			}
			cs.rr = uint8(vc)
			break
		}
	}
	moves = moves[:nm]
	nw.moves = moves
	for _, mv := range moves {
		vs := &vcx[mv.gvc+1]
		vs.sent++
		p := vs.prev
		up := &vcx[p+1]
		up.buf--
		up.drained++
		if up.drained == up.length {
			nw.freeVC(p)
		}
		vcx[0] = sourceVC // an injection move drained it
		var eject int16   // a flag move, not a branch
		if mv.eject {
			eject = 1
		}
		vs.buf += 1 - eject
		if vs.sent == vs.length && eject != 0 {
			nw.deliver(nw.owner[mv.gvc], mv.gvc)
		}
	}
	return nm
}

// linkUpActive returns the active channels whose link is up this
// cycle, in active order: flits on a transiently down link hold their
// buffers.
func (nw *network) linkUpActive() []int32 {
	up := nw.upActive[:0]
	for _, ch := range nw.active {
		if nw.linkUpChan(ch) {
			up = append(up, ch)
		}
	}
	nw.upActive = up
	return up
}

// readyBit is 1 when VC vs can forward a flit this cycle and 0
// otherwise: sent < length, its upstream buffer (vcx[prev+1], the
// source sentinel for an injection VC) holds a flit, and buf < room.
// Each test is the sign bit of a difference, so the three combine
// with one AND and no branch. The counters are never negative, so
// reading them zero-extended gives the same values and lets the
// compiler fold each load into an indexed move.
func readyBit(vs *vcState, vcx []vcState, room int16) uint32 {
	toSend := int32(uint16(vs.sent)) - int32(uint16(vs.length))
	upHolds := -int32(uint16(vcx[vs.prev+1].buf))
	hasRoom := int32(uint16(vs.buf)) - int32(uint16(room))
	return uint32(toSend&upHolds&hasRoom) >> 31
}

func (nw *network) freeVC(gvc int32) {
	ch := gvc / int32(nw.v)
	// record the holding time of network channels granted inside the
	// measurement window (ejection/injection channels excluded)
	cs := &nw.chans[ch]
	if cs.kind == netChan &&
		nw.grantCycle[gvc] >= nw.measureStart && nw.grantCycle[gvc] < nw.measureEnd {
		nw.res.VCHolding.Add(float64(nw.cycle + 1 - nw.grantCycle[gvc]))
	}
	nw.owner[gvc] = nil
	nw.vcs[gvc] = vcState{prev: -1}
	cs.ownMask &^= 1 << uint(gvc-ch*int32(nw.v))
	cs.busy--
	if cs.busy == 0 {
		// swap-remove from the active set
		pos := nw.activePos[ch]
		lastIdx := int32(len(nw.active) - 1)
		lastCh := nw.active[lastIdx]
		nw.active[pos] = lastCh
		nw.activePos[lastCh] = pos
		nw.active = nw.active[:lastIdx]
		nw.activePos[ch] = -1
	}
}

const latencyInterval = 512

func (nw *network) deliver(m *message, gvc int32) {
	nw.freeVC(gvc)
	if nw.obs != nil {
		nw.obs.HandleEvent(Event{Cycle: nw.cycle, Kind: EvDeliver, Msg: m.id,
			Node: int32(m.dst), VC: -1, Hop: int32(m.hops)})
	}
	nw.intervalSum += float64(nw.cycle + 1 - m.genCycle)
	nw.intervalCount++
	nw.res.Delivered++
	if nw.cycle >= nw.measureStart && nw.cycle < nw.measureEnd {
		nw.res.DeliveredInWindow++
	}
	if m.measured {
		lat := float64(nw.cycle + 1 - m.genCycle)
		nw.res.Latency.Add(lat)
		nw.res.LatencyHist.Add(int(nw.cycle + 1 - m.genCycle))
		nw.res.NetLatency.Add(float64(nw.cycle + 1 - m.injCycle))
		nw.res.HopCount.Add(float64(m.hops))
		nw.res.MeasuredDelivered++
		nw.measuredInFly--
	}
	m.nextQueue = nw.freeList
	nw.freeList = m
}

// doSampling records the busy-VC distribution over network channels
// every sampleEvery cycles inside the measurement window.
const sampleEvery = 16

func (nw *network) doSampling() {
	if nw.cycle < nw.measureStart || nw.cycle >= nw.measureEnd {
		return
	}
	nw.sampleCountdown--
	if nw.sampleCountdown > 0 {
		return
	}
	nw.sampleCountdown = sampleEvery
	hist := nw.res.VCBusyHist
	for ch, cs := range nw.chans {
		if cs.kind == netChan && nw.chanExists[ch] {
			hist[cs.busy]++
		}
	}
}
