package desim

// The observability hook surface of the simulator. An Observer is an
// opt-in, pull/push hybrid: the simulator pushes message-lifecycle
// events (EvBlock episodes included) and one EndCycle tick per
// simulated cycle, and hands the observer a read-only Probe at
// BeginRun through which gauges — per-channel busy VCs,
// injection-queue depths — can be sampled at whatever cadence the
// observer chooses. It is the simulator's one event sink.
// internal/obs provides the standard implementation (fixed-interval
// time series, a bounded trace ring with JSONL export, and per-hop
// blocking counters aligned with eqs. 6/13/15).
//
// Contract: observers are passive. The simulator never lets an
// observer influence control flow, consume randomness or mutate state,
// so a run's Result is byte-identical with and without an attached
// observer (enforced by TestObserverDoesNotPerturb). All callbacks
// arrive on the single simulation goroutine in deterministic order; an
// observer needs no locking unless it shares state across runs. A nil
// Config.Observer costs one predictable branch per event site
// (benchmarked in bench_obs_test.go; see BENCH_sim.json).

// Observer receives simulator lifecycle callbacks. Implementations
// must not retain the Probe past EndRun.
type Observer interface {
	// BeginRun is called once before the first cycle with the run's
	// static dimensions and the live state probe.
	BeginRun(info RunInfo)
	// HandleEvent receives every message-lifecycle event: generate,
	// inject, per-hop grant and first-attempt block, deliver.
	HandleEvent(ev Event)
	// EndCycle is called once per simulated cycle, after all phases of
	// that cycle (arrivals, injection, routing, transfers) completed —
	// the consistent point to sample gauges through the Probe.
	EndCycle(cycle int64)
	// EndRun is called once after the run's statistics are sealed.
	EndRun(res *Result)
}

// RunInfo carries the static dimensions of one run, fixed before the
// first cycle.
type RunInfo struct {
	// Topology names the network instance.
	Topology string
	// Nodes is the node count, Degree the network dimensions per node,
	// Slots Degree+2 (ejection and injection channels), and V the
	// virtual channels per physical channel. Physical channel indices
	// run over [0, Nodes*Slots): per node, slots 0..Degree-1 are the
	// network channels, slot Degree the ejection channel, slot
	// Degree+1 the injection channel.
	Nodes, Degree, Slots, V int
	// Cfg is a copy of the run's configuration.
	Cfg Config
	// Probe reads live simulator state; valid until EndRun returns.
	Probe Probe
}

// Probe is the read-only view of live simulator state handed to
// observers. All methods are O(1) and allocation-free; a full
// per-channel sweep is O(Nodes·Slots).
type Probe interface {
	// Channels returns the number of physical channels (Nodes*Slots).
	Channels() int
	// NetworkChannel reports whether physical channel ch is a network
	// channel that exists in the (possibly degraded) topology — false
	// for injection/ejection slots, mesh borders and failed links.
	NetworkChannel(ch int) bool
	// BusyVCs returns the number of occupied virtual channels of
	// physical channel ch.
	BusyVCs(ch int) int
	// VCBusy reports whether virtual channel vc of physical channel ch
	// is currently owned by a message.
	VCBusy(ch, vc int) bool
	// QueueLen returns the source-queue depth of node.
	QueueLen(node int) int
	// QueuedTotal returns the total number of queued messages.
	QueuedTotal() int
}

// The network itself implements Probe.

// Channels returns the number of physical channels.
func (nw *network) Channels() int { return nw.top.N() * nw.slots }

// NetworkChannel reports whether ch is an existing network channel.
func (nw *network) NetworkChannel(ch int) bool {
	return ch%nw.slots < nw.deg && nw.chanExists[ch]
}

// BusyVCs returns the occupied-VC count of channel ch.
func (nw *network) BusyVCs(ch int) int { return int(nw.chans[ch].busy) }

// VCBusy reports whether VC vc of channel ch is owned.
func (nw *network) VCBusy(ch, vc int) bool { return nw.owner[ch*nw.v+vc] != nil }

// QueueLen returns the source-queue depth of node.
func (nw *network) QueueLen(node int) int { return nw.queueLen[node] }

// QueuedTotal returns the total queued-message count.
func (nw *network) QueuedTotal() int { return nw.totalQueued }
