// Package desim is a flit-level, cycle-accurate discrete-event
// simulator of wormhole-switched direct networks with virtual-channel
// flow control. It reproduces the validation vehicle of the paper:
//
//   - the network cycle is the transmission time of one flit across
//     one physical channel;
//   - each node generates messages by an independent Poisson process
//     and destinations follow a configurable pattern (uniform in the
//     paper);
//   - messages are M flits long; the header acquires one virtual
//     channel per hop under a routing.Spec (NHop / Nbc /
//     Enhanced-Nbc) and body flits follow in wormhole fashion;
//   - the V virtual channels of a physical channel share its
//     bandwidth by demand-driven round-robin multiplexing (one flit
//     per channel per cycle);
//   - messages reach the local processor through a dedicated ejection
//     channel and are injected through a dedicated injection channel,
//     each also carrying V virtual channels;
//   - the mean message latency is the time from generation to the
//     delivery of the last data flit, the network latency from
//     injection-channel acquisition to delivery, and the queueing
//     time the difference.
//
// The simulator is deterministic for a fixed Config (including Seed)
// and single-goroutine; parallelism belongs to the sweep harness in
// internal/experiments, which runs independent configurations on
// separate goroutines.
package desim

import (
	"starperf/internal/cfgerr"
	"starperf/internal/routing"
	"starperf/internal/stats"
	"starperf/internal/topology"
	"starperf/internal/traffic"
)

// MaxVCs bounds the virtual channels per physical channel: the
// transfer loop keeps each channel's owned VCs in one 64-bit mask.
const MaxVCs = 64

// latencyHistBins is Result.LatencyHist's range: latencies of
// latencyHistBins cycles or more land in its overflow bucket.
const latencyHistBins = 1 << 14

// Config fully describes one simulation run.
type Config struct {
	// Top is the network topology.
	Top topology.Topology
	// Spec is the resolved routing algorithm (see routing.New).
	Spec routing.Spec
	// Policy selects among free eligible virtual channels.
	Policy routing.Policy
	// Pattern maps sources to destinations; nil means uniform.
	Pattern traffic.Pattern
	// NewArrivals optionally overrides the per-node arrival process
	// (default: Poisson at Rate). It is called once per node with a
	// node-specific RNG and must honour the configured mean rate for
	// the latency statistics to be comparable.
	NewArrivals func(rng *traffic.RNG, rate float64) traffic.Arrivals
	// Rate is the per-node message generation rate λg in
	// messages/cycle.
	Rate float64
	// MsgLen is the message length M in flits (the mean when
	// LenDist is set).
	MsgLen int
	// LenDist optionally draws per-message lengths (sensitivity
	// studies of the paper's fixed-M assumption); nil means every
	// message is exactly MsgLen flits. Sampled lengths are clamped
	// to [1, 16384].
	LenDist traffic.LengthDist
	// BufCap is the per-virtual-channel buffer depth in flits. The
	// paper gives each VC an input and an output buffer; depth 2
	// (the default when 0) sustains full-rate wormhole streaming.
	BufCap int
	// CutThrough selects virtual cut-through switching: buffers hold
	// a whole message (BufCap defaults to MsgLen), so a blocked
	// message is absorbed by the local router instead of stalling a
	// chain of channels — the classic comparison point for wormhole
	// switching. With LenDist set, BufCap must be set explicitly to
	// cover the longest message.
	CutThrough bool
	// Seed makes the run reproducible.
	Seed uint64
	// WarmupCycles are discarded before measurement begins.
	WarmupCycles int64
	// MeasureCycles is the length of the measurement window:
	// messages *generated* inside it are measured.
	MeasureCycles int64
	// DrainCycles bounds how long after the window the simulator
	// waits for measured messages to be delivered (default
	// 4×(Warmup+Measure) when 0).
	DrainCycles int64
	// DeadlockThreshold is the number of consecutive cycles without
	// any flit transfer (while messages are in flight) after which
	// the run aborts with Result.Deadlocked (default 50000 when 0).
	DeadlockThreshold int64
	// MaxMsgAge, when positive, arms the over-age half of the
	// progress watchdog: if any message stays in the network (from
	// injection-VC acquisition) longer than this many cycles, the run
	// aborts gracefully with Result.Aborted and the stalled message's
	// route in Result.StallTrace — catching livelocks and
	// fault-induced starvation that global progress (which
	// DeadlockThreshold monitors) does not see. Zero disables the
	// check, preserving byte-identical results for existing configs.
	MaxMsgAge int64
	// Paranoid enables structural invariant checking every
	// ParanoidEvery cycles (default 64 when 0); a violation aborts
	// the run with an error. Costs roughly 2× runtime; intended for
	// tests and debugging sessions.
	Paranoid      bool
	ParanoidEvery int64
	// Observer, when non-nil, receives lifecycle events, per-cycle
	// ticks and a read-only state probe (see Observer). Observation is
	// strictly passive: attaching one cannot change the Result. The
	// standard implementation lives in internal/obs.
	Observer Observer
}

// Validate reports the first configuration error Run would reject the
// Config with before simulating, classified as a cfgerr; callers that
// accept configurations from users (the HTTP server) check it up
// front. Run validates again, so calling it is optional.
func (c *Config) Validate() error {
	switch {
	case c.Top == nil:
		return cfgerr.New("desim: nil topology")
	case c.Top.N() <= 0:
		return cfgerr.Errorf("desim: topology %q has no nodes", c.Top.Name())
	case c.Spec.V() <= 0:
		return cfgerr.New("desim: routing spec has no virtual channels")
	case c.Spec.V() > MaxVCs:
		return cfgerr.Errorf("desim: %d virtual channels per physical channel, at most %d supported",
			c.Spec.V(), MaxVCs)
	case c.Rate < 0:
		return cfgerr.Errorf("desim: negative rate %v", c.Rate)
	case c.MsgLen <= 0:
		return cfgerr.Errorf("desim: message length %d", c.MsgLen)
	case c.MsgLen > 1<<14:
		return cfgerr.Errorf("desim: message length %d too large", c.MsgLen)
	case c.WarmupCycles < 0:
		return cfgerr.Errorf("desim: negative WarmupCycles %d", c.WarmupCycles)
	case c.MeasureCycles <= 0:
		return cfgerr.Errorf("desim: MeasureCycles %d must be positive", c.MeasureCycles)
	case c.DrainCycles < 0:
		return cfgerr.Errorf("desim: negative DrainCycles %d", c.DrainCycles)
	case c.DeadlockThreshold < 0:
		return cfgerr.Errorf("desim: negative DeadlockThreshold %d", c.DeadlockThreshold)
	case c.MaxMsgAge < 0:
		return cfgerr.Errorf("desim: negative MaxMsgAge %d", c.MaxMsgAge)
	}
	return nil
}

// ChannelFlapper is implemented by fault-injecting topologies
// (internal/faults.Faulted) whose physical links go down and come
// back in deterministic periodic windows. The simulator queries
// every network channel once at start-up; channel (node, dim) is
// down at cycle t iff (t+phase) mod period < down.
type ChannelFlapper interface {
	// FlapWindow returns the flap window of channel (node, dim);
	// ok is false when the channel never flaps.
	FlapWindow(node, dim int) (period, down, phase int64, ok bool)
}

// NodeHealth is implemented by fault-injecting topologies in which
// whole nodes can fail. The simulator skips the arrival process of a
// failed node and draws default uniform destinations over live nodes
// only; a custom pattern that addresses a dead (or otherwise
// unreachable) destination aborts the run at injection with a typed
// routing.UnreachableError.
type NodeHealth interface {
	// NodeUp reports whether node survives the fault plan.
	NodeUp(node int) bool
}

// Result aggregates one run's measurements.
type Result struct {
	// Latency is the distribution of total message latency
	// (generation → last flit at destination PE) over measured
	// messages, in cycles.
	Latency stats.Stream
	// NetLatency covers injection-VC acquisition → delivery.
	NetLatency stats.Stream
	// QueueTime covers generation → injection-VC acquisition.
	QueueTime stats.Stream
	// HopCount is the distribution of path lengths of measured
	// messages.
	HopCount stats.Stream
	// VCHolding is the distribution of virtual-channel holding times
	// (grant → release) over network channels, for grants inside the
	// measurement window. Its mean is the empirical channel service
	// time the paper's eq. 13 approximates by the whole network
	// latency S̄ (and the cut-through model by M).
	VCHolding stats.Stream
	// HopWait is the distribution of per-hop header waiting times
	// (cycles from the first allocation attempt at a router to the
	// grant, zero when the first attempt succeeds), over network hops
	// of measured messages. Its mean is the simulator's counterpart
	// of the model's P_block·w̄ (eqs. 6 and 15).
	HopWait stats.Stream
	// LatencyHist is the integer histogram of measured message
	// latencies (bins are cycles, clamped at 1<<14), from which tail
	// percentiles can be read.
	LatencyHist *stats.Histogram
	// Generated counts all messages created during the run;
	// Delivered all deliveries; MeasuredDelivered the measured ones
	// (generated inside the window, delivered eventually);
	// DeliveredInWindow the deliveries that completed inside the
	// measurement window regardless of generation time — the count
	// that defines accepted throughput.
	Generated, Delivered, MeasuredDelivered, DeliveredInWindow uint64
	// Cycles is the number of simulated cycles.
	Cycles int64
	// VCBusyHist[v] counts (channel,cycle) samples with exactly v
	// busy VCs, sampled over network channels during measurement.
	VCBusyHist []uint64
	// Multiplexing is the measured average multiplexing degree
	// V̄ = E[v²]/E[v] over busy samples (1 when no samples).
	Multiplexing float64
	// ClassAUse and ClassBUse count network-hop VC acquisitions per
	// class; ClassBLevelUse counts class-b acquisitions per level.
	ClassAUse, ClassBUse uint64
	ClassBLevelUse       []uint64
	// BlockedAttempts counts allocation attempts that found no free
	// eligible VC; Attempts counts all allocation attempts (network
	// hops only). Their ratio estimates the blocking probability.
	BlockedAttempts, Attempts uint64
	// ChannelGrantCV is the coefficient of variation of per-channel
	// message acquisitions over the network channels, measured after
	// warm-up. Values near zero confirm the evenly-distributed
	// channel-rate assumption behind the paper's eq. 3; skewed
	// patterns (hotspot) drive it up.
	ChannelGrantCV float64
	// ChannelRate is the measured per-channel message acquisition
	// rate (grants/channel/cycle after warm-up), the empirical λc.
	ChannelRate float64
	// MaxQueueLen is the largest source-queue length observed;
	// EndQueueLen the total queued messages at the end of the run.
	MaxQueueLen, EndQueueLen int
	// Nodes is the network size (for per-node normalisation of the
	// queue statistics).
	Nodes int
	// IntervalLatency is the mean delivery latency per 512-cycle
	// interval over the whole run (warm-up included, empty intervals
	// carrying the previous mean forward) — the time series behind
	// data-driven warm-up detection. SuggestedWarmup is the MSER
	// truncation point converted back to cycles (-1 when no steady
	// state was detected).
	IntervalLatency []float64
	SuggestedWarmup int64
	// Deadlocked reports that the deadlock detector fired.
	Deadlocked bool
	// Drained reports that every measured message was delivered
	// before the drain limit; when false the latency figures are
	// biased low (a saturation symptom).
	Drained bool
	// Aborted reports that the progress watchdog ended the run early
	// — a no-flit-advanced window (then Deadlocked is also set) or an
	// over-age message (Config.MaxMsgAge) — instead of burning cycles
	// to the drain limit. AbortReason says which and why, StallCycle
	// is the cycle the watchdog fired, and StallTrace reconstructs
	// the oldest in-flight message's route (generation, injection and
	// one grant event per still-held virtual channel) from the live
	// channel chains, whether or not an Observer is attached.
	Aborted     bool
	AbortReason string
	StallCycle  int64
	StallTrace  []Event
	// Misroutes counts hops granted on non-minimal channels — the
	// escape/misroute fallback taken when transient faults had every
	// profitable channel of a hop down. Always zero on fault-free
	// topologies.
	Misroutes uint64
}

// Saturated heuristically reports whether the run operated beyond
// saturation: the detector fired, the watchdog aborted the run,
// measured messages never drained, or the source queues ended the
// run holding more than four messages per node on average (arrivals
// continue through the drain period, so a stable network ends with
// short steady-state queues while an overloaded one accumulates them
// linearly).
func (r *Result) Saturated() bool {
	return r.Deadlocked || r.Aborted || !r.Drained ||
		(r.Nodes > 0 && r.EndQueueLen > 4*r.Nodes)
}

// message is one wormhole packet in flight.
type message struct {
	id        uint64
	src, dst  int
	genCycle  int64
	injCycle  int64
	waitStart int64 // first allocation attempt for the current hop; -1 when idle
	hops      int
	length    int16
	st        routing.State
	headVC    int32 // global VC index of the furthest acquired channel
	curNode   int32 // node whose router buffers the head flit
	measured  bool
	routing   bool // present in the routePending list
	nextQueue *message
}

// network is the mutable simulation state.
type network struct {
	cfg     Config
	top     topology.Topology
	spec    routing.Spec
	deg     int // network dimensions per node
	slots   int // deg + ejection + injection
	v       int
	bufCap  int16
	msgLen  int16
	pattern traffic.Pattern

	// Per-VC state, indexed channel*v + vc. vcs is vcx[1:]: vcx[0] is
	// the source sentinel (see sourceVC), which the transfer loop reads
	// as vcx[prev+1], so an injection VC's prev of −1 names it.
	owner []*message
	vcs   []vcState
	vcx   []vcState

	// chans holds one chanState record per physical channel.
	chans []chanState

	queueHead, queueTail []*message
	queueLen             []int
	totalQueued          int

	// arrivals are the per-node processes; nextAt caches each one's
	// next arrival time and nextArrival their minimum, so idle cycles
	// skip the poll and a due cycle polls only the nodes due.
	arrivals    []traffic.Arrivals
	nextAt      []float64
	nextArrival float64
	rng         *traffic.RNG

	routePending []*message
	moves        []transfer
	grantCount   []uint32 // per network channel, after warm-up
	chanExists   []bool   // per channel; false for mesh borders and failed links

	// Transient-fault state (nil/false on fault-free topologies, so
	// the hot loops keep their fast paths). flapOfChan maps a channel
	// to its flap window in flapWindows (−1: never flaps, and every
	// injection and ejection channel); checkReach enables the
	// per-message injection reachability check; nodeUp is the per-node
	// liveness mask.
	flapOfChan  []int32
	flapWindows []flapWindow
	upActive    []int32 // the active channels whose link is up this cycle
	checkReach  bool
	nodeUp      []bool

	// Active-channel tracking: the transfer loop visits only channels
	// with at least one owned VC instead of scanning the whole
	// network every cycle (a large win at light load; see
	// BenchmarkSimS7LowLoad). active is an unordered set with
	// swap-removal via activePos.
	active     []int32
	activePos  []int32
	grantCycle []int64 // per VC: when the current owner acquired it
	dimBuf     []int
	eligBuf    []int
	pairBuf    []pair

	freeList *message

	// obs is Config.Observer, nil when detached: every event site
	// tests it once and builds no Event on an unobserved run.
	obs Observer

	intervalSum   float64
	intervalCount int64

	cycle           int64
	lastProgress    int64
	measuredInFly   uint64
	res             Result
	measureStart    int64
	measureEnd      int64
	sampleCountdown int
}

// vcState is the flit bookkeeping of one virtual channel, packed so
// the transfer loop reads one record per VC. prev is the upstream VC
// of the same message (−1 for an injection VC or a free VC); buf
// counts the flits buffered at the downstream router, sent the flits
// forwarded over the channel, and drained the flits that left its
// buffer onwards; length caches the owner's message length, so the
// transfer loop dereferences no message. The padding makes the record
// 16 bytes, so indexing it is a shift and each field load one
// instruction.
type vcState struct {
	prev                       int32
	buf, sent, drained, length int16
	_                          int32
}

// sourceVC is the source sentinel: the upstream of every injection VC.
// It always holds a flit and never drains to its length, so the
// transfer loop tests and drains an injection VC's upstream buffer
// like any other; it is restored after every move.
var sourceVC = vcState{prev: -1, buf: 1}

// chanState is the per-channel record the transfer loop reads: ownMask
// has bit vc set while VC vc is owned (hence V ≤ MaxVCs), so the loop
// visits only owned VCs; busy counts those VCs; room is the buffer
// depth a VC may fill (BufCap, or math.MaxInt16 on an ejection
// channel, which delivers at once); rr is the round-robin pointer;
// kind replaces the slot div/mod on the flit path.
type chanState struct {
	ownMask uint64
	busy    int16
	room    int16
	rr      uint8
	kind    chanKind
}

// chanKind classifies a physical channel by its slot.
type chanKind uint8

const (
	netChan chanKind = iota
	ejectChan
	injectChan
)

// transfer is one flit move decided at the start of a cycle.
type transfer struct {
	gvc   int32
	eject bool
}

// pair is one free eligible (dimension, vc) candidate of a header
// allocation.
type pair struct {
	dim, vc int
}

// flapWindow is the resolved per-channel form of a transient link
// fault: down at cycle t iff (t+phase) mod period < down.
type flapWindow struct {
	period, down, phase int64
}

// channel index helpers: per node, slots 0..deg-1 are network
// channels along each dimension, slot deg is the ejection channel,
// slot deg+1 the injection channel.
func (nw *network) chanIdx(node, slot int) int32 { return int32(node*nw.slots + slot) }

func (nw *network) nodeOfChan(ch int32) int { return int(ch) / nw.slots }
