package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"starperf/internal/cluster"
	"starperf/internal/obs"
	"starperf/internal/wire"
)

// The peer-aware request path of a sharded starperfd cluster.
//
// Routing policy, in preference order for a compute request on job id:
//
//  1. The ring owner serves it (forwarded to when that is a peer, run
//     locally when it is us). Ownership concentrates each id's cache
//     entry, singleflight window and journal records on one node.
//  2. On owner failure — connection refused, timeout, or a 5xx — the
//     request fails over to the next ring successor, and so on down
//     the preference order every member agrees on.
//  3. As a last resort the receiving node computes locally (after
//     asking the remaining peers' caches for a finished copy), so a
//     dead peer degrades capacity but never availability: content-
//     hash ids make any replica's recompute byte-identical.
//
// A forwarded request carries X-Starperf-Forwarded, and a node never
// re-forwards one — the forwarding fan-out is depth one by
// construction, so a stale ring config (two nodes disagreeing about
// ownership) costs an extra hop's latency and duplicated compute,
// never a forwarding loop.
//
// Every peer is guarded by its own PR 5 circuit breaker (keyed by
// peer address instead of route): a dead or flapping peer is probed
// once per cooldown, not hammered by every request that would have
// preferred it.

const (
	// maxPeerBody bounds a relayed or filled response body.
	maxPeerBody = 64 << 20
	// peerTimeout bounds one peer cache fill or cross-node job lookup.
	// A forwarded compute request is budgeted by requestDeadline
	// instead.
	peerTimeout = 2 * time.Second
	// peerScheme is the URL scheme peers are reached by: cluster
	// traffic is assumed to run on a trusted network, as the README
	// documents.
	peerScheme = "http"
)

// peerNet is one node's view of the cluster: the ring, the HTTP
// client it reaches peers with, per-peer breakers and the routing
// counters /metricsz reports.
type peerNet struct {
	ring     *cluster.Ring
	http     *http.Client
	breakers *breakerSet

	owned           atomic.Uint64
	forwarded       atomic.Uint64
	forwardErrors   atomic.Uint64
	failovers       atomic.Uint64
	localFallbacks  atomic.Uint64
	peerFills       atomic.Uint64
	peerFillCorrupt atomic.Uint64
}

func newPeerNet(cfg Config) *peerNet {
	cfg = cfg.withDefaults()
	return &peerNet{
		ring:     cfg.Ring,
		http:     cfg.PeerHTTP,
		breakers: newBreakerSet(cfg.PeerBreaker),
	}
}

// url renders a peer's base URL from its ring address.
func (cn *peerNet) url(node string) string { return peerScheme + "://" + node }

// stats snapshots the cluster counters.
func (cn *peerNet) stats() obs.ClusterStats {
	return obs.ClusterStats{
		Self:            cn.ring.Self(),
		Members:         cn.ring.Members(),
		VirtualNodes:    cn.ring.VirtualNodes(),
		Owned:           cn.owned.Load(),
		Forwarded:       cn.forwarded.Load(),
		ForwardErrors:   cn.forwardErrors.Load(),
		Failovers:       cn.failovers.Load(),
		LocalFallbacks:  cn.localFallbacks.Load(),
		PeerFills:       cn.peerFills.Load(),
		PeerFillCorrupt: cn.peerFillCorrupt.Load(),
		PeerBreakers:    cn.breakers.report(),
	}
}

// isForwarded reports whether r already crossed one peer hop.
func isForwarded(r *http.Request) bool { return r.Header.Get(wire.ForwardedHeader) != "" }

// clusterRoute runs the peer-aware path for a compute request: relay
// to the id's owner (or a ring successor when the owner is down), or
// serve from a peer's cache. It reports true when it wrote the
// response; false means the caller should compute locally — either
// because this node owns the id, or as the last-resort fallback when
// no preferred peer could take it. A peer-cache fill is answered in
// the kind's own shape (jobKind.answer).
func (s *Server) clusterRoute(w http.ResponseWriter, r *http.Request, k *jobKind, id string, raw []byte) bool {
	cn := s.cluster
	if cn == nil || isForwarded(r) {
		return false
	}
	targets := cn.ring.Successors(id)
	if targets[0] == cn.ring.Self() {
		cn.owned.Add(1)
		return false
	}
	deadline := s.requestDeadline(r)
	for _, node := range targets {
		if node == cn.ring.Self() {
			// Our turn in the preference order: every peer ranked above
			// us is unavailable, so we stop relaying and compute.
			break
		}
		if ok, _ := cn.breakers.allow(node); !ok {
			cn.failovers.Add(1)
			continue
		}
		resp, body, err := cn.forwardOnce(r.Context(), node, k.route, raw, deadline)
		if err != nil || resp.StatusCode >= 500 {
			// Connection refused, timeout, or the peer failing server-
			// side: feed its breaker and move down the ring. 4xx are
			// the peer answering deliberately (bad request, its own
			// load shedding) — relayed below, not failed over, so a
			// breaker can never trip on backpressure.
			cn.peerFailed(node)
			continue
		}
		// A peer result that advertises a content sum must match it: a
		// mismatch means the bytes were damaged in flight, so relaying
		// them would launder corruption into a verbatim-looking answer.
		// Treated exactly like a transport failure — feed the breaker,
		// fail over down the ring. Only a sync kind's 200, the result
		// bytes themselves, carries a sum: an async kind answers with a
		// job id.
		if sum := resp.Header.Get(wire.ResultSumHeader); sum != "" && wire.ResultSum(body) != sum {
			cn.peerFillCorrupt.Add(1)
			cn.peerFailed(node)
			continue
		}
		cn.breakers.observe(node, false)
		cn.forwarded.Add(1)
		relayResponse(w, resp, body)
		return true
	}
	// No preferred peer could take the request. Before computing a job
	// we do not own, ask the remaining peers' caches for a finished
	// copy — an owner that just restarted, or a successor that served
	// an earlier failover, may already hold the verified bytes.
	if body, ok := cn.fill(r.Context(), id); ok {
		s.cache.Put(id, body)
		k.answer(w, id, "peer", body)
		return true
	}
	cn.localFallbacks.Add(1)
	return false
}

// peerFailed records a forward that failed at node: the peer's breaker
// sees the failure and the request moves down the ring.
func (cn *peerNet) peerFailed(node string) {
	cn.breakers.observe(node, true)
	cn.forwardErrors.Add(1)
	cn.failovers.Add(1)
}

// forwardOnce relays one compute request to a peer, propagating the
// caller's remaining deadline both as the context budget and as the
// X-Starperf-Deadline header, so the peer's admission control sheds
// with the true end-to-end patience, not its default.
func (cn *peerNet) forwardOnce(ctx context.Context, node, path string, body []byte, deadline time.Duration) (*http.Response, []byte, error) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cn.url(node)+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline > 0 {
		req.Header.Set(wire.DeadlineHeader, deadline.Round(time.Millisecond).String())
	}
	return cn.exchange(req)
}

// exchange sends one request to a peer, marked as having crossed a
// hop, and reads the whole response body (bounded by maxPeerBody).
func (cn *peerNet) exchange(req *http.Request) (*http.Response, []byte, error) {
	req.Header.Set(wire.ForwardedHeader, cn.ring.Self())
	resp, err := cn.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// relayResponse writes a peer's answer through verbatim: status, body
// and the headers that carry meaning across the hop (including which
// node served it, so the client sees through the relay).
func relayResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After", wire.JobHeader, wire.CacheHeader, wire.ResultSumHeader, wire.NodeHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// peerJob asks one peer for a job's state. ok means a 200 envelope
// came back (env is valid); failed means the peer itself failed
// (transport error or 5xx) and should feed its breaker. A done
// envelope whose result bytes do not match the advertised content sum
// is counted corrupt and reported as not-ok: unverifiable bytes are
// never stored and never served.
func (cn *peerNet) peerJob(ctx context.Context, node, id string) (env wire.Job, ok, failed bool) {
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cn.url(node)+"/v1/jobs/"+id, nil)
	if err != nil {
		return env, false, true
	}
	resp, b, err := cn.exchange(req)
	if err != nil || resp.StatusCode >= 500 {
		return env, false, true
	}
	if resp.StatusCode != http.StatusOK {
		return env, false, false // 404 and friends: the peer is healthy, it just doesn't know the job
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return env, false, false
	}
	if env.Finished() {
		if sum := resp.Header.Get(wire.ResultSumHeader); sum == "" || wire.ResultSum(env.Result) != sum {
			cn.peerFillCorrupt.Add(1)
			return wire.Job{}, false, false
		}
	}
	return env, true, false
}

// lookup asks the peers in id's preference order for the job's state,
// feeding each one's breaker. The first peer that knows the job
// answers — or, with finished set, the first holding its finished,
// verified result. A finished result counts as a peer fill.
func (cn *peerNet) lookup(ctx context.Context, id string, finished bool) (wire.Job, bool) {
	for _, node := range cn.ring.Successors(id) {
		if node == cn.ring.Self() {
			continue
		}
		if ok, _ := cn.breakers.allow(node); !ok {
			continue
		}
		env, ok, failed := cn.peerJob(ctx, node, id)
		cn.breakers.observe(node, failed)
		if ok && (env.Finished() || !finished) {
			if env.Finished() {
				cn.peerFills.Add(1)
			}
			return env, true
		}
	}
	return wire.Job{}, false
}

// fill asks each peer in the id's preference order for a finished,
// verified result. The first hit wins.
func (cn *peerNet) fill(ctx context.Context, id string) ([]byte, bool) {
	env, ok := cn.lookup(ctx, id, true)
	return env.Result, ok
}

// clusterJobLookup extends GET /v1/jobs/{id} across the ring: a job
// this node has never heard of may be running (or finished) on the
// peer that owns it. The peer's view is relayed — queued, running and
// failed too, so cross-node polling works mid-computation — and a
// finished, verified result is stored in the local cache on the way
// through (peer cache fill), so the next poll for it is a local hit.
// Reports true when it wrote the response.
func (s *Server) clusterJobLookup(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil || isForwarded(r) {
		return false
	}
	env, ok := s.cluster.lookup(r.Context(), id, false)
	if !ok {
		return false
	}
	if env.Finished() {
		s.cache.Put(id, env.Result)
	}
	reply(w, http.StatusOK, env)
	return true
}

// ringBody is the GET /v1/ring/{id} response: where a job id lives.
type ringBody struct {
	ID    string   `json:"id"`
	Self  string   `json:"self"`
	Nodes []string `json:"nodes"`
}

// handleRing serves GET /v1/ring/{id}: the id's preference order on
// this node's ring — owner first, failover order after. On an
// unclustered server the list is this node alone.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	body := ringBody{ID: r.PathValue("id"), Nodes: []string{}}
	if s.cluster != nil {
		body.Self = s.cluster.ring.Self()
		body.Nodes = s.cluster.ring.Successors(body.ID)
	}
	reply(w, http.StatusOK, body)
}
