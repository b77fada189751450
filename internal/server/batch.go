package server

// POST /v1/jobs:batch — batched ingestion (PR 10).
//
// Request:  {"items": [{"kind": "<kind>", "config": {...}}, ...]}
// Response: 200 {"items": [{"id", "status"} | {"error": {...}}, ...]}
//
// A batch is a set of independently addressable jobs — content-hash
// ids make each item exactly the job its standalone submission would
// have been — but the batch pays its fixed costs once: one HTTP round
// trip, ONE admission decision priced at the batch's cumulative cost,
// and ONE journal commit (a single fsync) for the whole accepted set
// via jobs.Pool.SubmitBatch → journal.AppendBatch.
//
// Acceptance is partial, never all-or-nothing: items the deadline-
// priced queue budget cannot take get per-item queue_full entries
// (the 429 a standalone submit would have received, retry hint
// included) while the affordable subset proceeds. Items[i] in the
// response always corresponds to items[i] in the request.
//
// On a clustered node the batch is split by ring owner: each peer's
// sub-batch is forwarded to it (one hop, marked X-Starperf-Forwarded)
// and the replies are merged back by index; a peer that cannot be
// reached degrades to computing its items locally, mirroring the
// single-request fallback policy in cluster.go.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"starperf/internal/jobs"
	"starperf/internal/wire"
)

// parsedItem is a parsed batch item bound for the pool.
type parsedItem struct {
	job
	idx int            // position in the request
	raw wire.BatchItem // original wire form, for sub-batch forwarding
}

// handleBatch serves POST /v1/jobs:batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req wire.BatchRequest
	if err := decodeStrict(raw, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if len(req.Items) == 0 {
		reply(w, http.StatusBadRequest, failure(wire.ClassInvalidConfig, "batch has no items", noRetry))
		return
	}
	if len(req.Items) > wire.MaxBatchItems {
		reply(w, http.StatusBadRequest, failure(wire.ClassInvalidConfig,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), wire.MaxBatchItems), noRetry))
		return
	}
	// A batch is an async acceptance en masse — the one journal
	// AppendBatch is its durability. A read-only journal refuses the
	// whole request up front (503 read_only) rather than accepting
	// items it cannot make durable.
	if s.refuseReadOnly(w) {
		return
	}
	s.observeBatch(len(req.Items))

	out := make([]wire.BatchItemResult, len(req.Items))

	// Parse and hash every item; cache hits are answered in place, the
	// rest queue up for routing and admission.
	var pending []parsedItem
	for i, it := range req.Items {
		// Each item parses through its kind's registry step — the same
		// one its standalone route runs.
		j, err := parseKind(it.Kind, it.Config)
		if err != nil {
			_, we := s.classifyErr(err)
			out[i] = wire.BatchItemResult{Error: &we}
			continue
		}
		if _, ok := s.cache.Get(j.id); ok {
			out[i] = wire.BatchItemResult{ID: j.id, Status: string(jobs.StatusDone)}
			continue
		}
		pending = append(pending, parsedItem{job: j, idx: i, raw: it})
	}

	// Split by ring owner; peer sub-batches come back merged into out,
	// what remains is ours (owned, or fallback for unreachable peers).
	local := pending
	if s.cluster != nil && !isForwarded(r) {
		local = s.clusterBatch(r, pending, out)
	}

	// ONE admission run for the whole local set, priced at batch cost
	// in request order against the caller's deadline (see admission):
	// each item waits behind the backlog and the items admitted before
	// it. Items past the budget get the queue_full entry a standalone
	// submit would have gotten, with the Retry-After the backlog at
	// that point implies; cheaper later items may still fit —
	// acceptance is per item, not prefix-only.
	adm := s.admission(r)
	admitted := make([]parsedItem, 0, len(local))
	for _, p := range local {
		if shed := adm.admit(p.meta.Kind); shed != nil {
			s.batchShed.Add(1)
			out[p.idx] = wire.BatchItemResult{Error: shed}
			continue
		}
		admitted = append(admitted, p)
	}

	// ONE pool submission — one journal group commit — for the
	// admitted set.
	items := make([]jobs.BatchItem, len(admitted))
	for n, p := range admitted {
		items[n] = jobs.BatchItem{ID: p.id, Meta: p.meta, Fn: s.runAndStore(p.id, p.run)}
	}
	for n, res := range s.pool.SubmitBatch(items) {
		p := admitted[n]
		if res.Err != nil {
			_, we := s.classifyErr(res.Err)
			out[p.idx] = wire.BatchItemResult{Error: &we}
			continue
		}
		out[p.idx] = wire.BatchItemResult{ID: p.id, Status: string(res.Job.Status())}
	}
	reply(w, http.StatusOK, wire.BatchResponse{Items: out})
}

// clusterBatch routes a batch's pending items across the ring: items
// owned by peers are forwarded as per-owner sub-batches and their
// replies merged into out by index; returned are the items to run
// locally — our own, plus any whose owner could not take them.
func (s *Server) clusterBatch(r *http.Request, pending []parsedItem, out []wire.BatchItemResult) []parsedItem {
	cn := s.cluster
	var local []parsedItem
	groups := make(map[string][]parsedItem)
	for _, p := range pending {
		owner := cn.ring.Successors(p.id)[0]
		if owner == cn.ring.Self() {
			cn.owned.Add(1)
			local = append(local, p)
			continue
		}
		groups[owner] = append(groups[owner], p)
	}
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners) // deterministic forward order
	for _, owner := range owners {
		group := groups[owner]
		if ok, _ := cn.breakers.allow(owner); !ok {
			cn.failovers.Add(1)
			cn.localFallbacks.Add(1)
			local = append(local, group...)
			continue
		}
		results, err := s.forwardBatch(r, owner, group)
		if err != nil {
			// Dead or failing peer: feed its breaker and keep the items —
			// capacity degrades, the batch still completes.
			cn.peerFailed(owner)
			cn.localFallbacks.Add(1)
			local = append(local, group...)
			continue
		}
		cn.breakers.observe(owner, false)
		cn.forwarded.Add(uint64(len(group)))
		for n, p := range group {
			out[p.idx] = results[n]
		}
	}
	return local
}

// forwardBatch relays one owner's sub-batch and returns its per-item
// results in sub-batch order.
func (s *Server) forwardBatch(r *http.Request, owner string, group []parsedItem) ([]wire.BatchItemResult, error) {
	sub := wire.BatchRequest{Items: make([]wire.BatchItem, len(group))}
	for n, p := range group {
		sub.Items[n] = p.raw
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	resp, respBody, err := s.cluster.forwardOnce(r.Context(), owner, "/v1/jobs:batch", body, s.requestDeadline(r))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: peer %s answered batch with %d", owner, resp.StatusCode)
	}
	var merged wire.BatchResponse
	if err := json.Unmarshal(respBody, &merged); err != nil {
		return nil, err
	}
	if len(merged.Items) != len(group) {
		return nil, fmt.Errorf("server: peer %s answered %d items for %d", owner, len(merged.Items), len(group))
	}
	return merged.Items, nil
}

// observeBatch folds one batch's size into the /metricsz counters.
func (s *Server) observeBatch(n int) {
	s.batches.Add(1)
	s.batchItems.Add(uint64(n))
	for {
		cur := s.batchMax.Load()
		if int64(n) <= cur || s.batchMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}
