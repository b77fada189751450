// Package soak is the randomized chaos harness (PR 12): a seeded
// generator drives hundreds of mixed predict/bounds/submit/batch/poll
// operations over raw HTTP against a cluster whose network (netx) and
// disks (fsx) are injecting faults, and an invariant checker asserts
// the properties the serving stack promises under any schedule:
//
//   - no acknowledged-then-lost job: every submission the cluster
//     answered with a job id is servable, done, after faults clear;
//   - byte-identity: every verified copy of a result — any node, any
//     time — is the same bytes;
//   - breaker liveness: no peer breaker stays pinned open once the
//     network heals and traffic flows;
//   - deadline monotonicity: a forwarded request never advertises
//     more deadline budget than the caller supplied.
//
// The package is deliberately pure plumbing — seeded math/rand, raw
// net/http, no wall-clock reads — so it sits inside the repo's
// determinism and clock-seam lint scopes and the same binary-driving
// code serves in-process tests and the CI smoke job. Servers are
// constructed by the caller (the test, the script); Run only drives
// and checks.
package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"starperf/internal/netx"
	"starperf/internal/wire"
)

// Config parameterises one soak run.
type Config struct {
	// Seed fully determines the generated operation sequence.
	Seed uint64
	// Ops is how many operations to drive (default 200).
	Ops int
	// Deadline is the per-request patience: the context budget and
	// the X-Starperf-Deadline header on every driven request
	// (default 2s). The monotonicity invariant checks forwarded
	// requests against it.
	Deadline time.Duration
}

// drainAttempts bounds the per-job post-heal polling (500 attempts at
// 10ms — the drain phase is what proves "no acknowledged job was
// lost", so it waits out queues).
const drainAttempts = 500

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	return c
}

// Report is the invariant checker's verdict, JSON-serialisable so CI
// can archive it.
type Report struct {
	Seed uint64 `json:"seed"`
	Ops  int    `json:"ops"`

	Predicts int `json:"predicts"`
	Bounds   int `json:"bounds"`
	Submits  int `json:"submits"`
	Batches  int `json:"batches"`
	Polls    int `json:"polls"`

	// Acked counts distinct job ids the cluster acknowledged.
	Acked int `json:"acked"`
	// Errors counts tolerated failures while faults were firing —
	// refusals, resets, timeouts. They are the weather, not
	// violations.
	Errors int `json:"errors"`
	// CorruptRejected counts response bodies the driver discarded on
	// checksum mismatch — corruption detected, never trusted.
	CorruptRejected int `json:"corrupt_rejected"`

	// Faults snapshots the fabric's injection counters.
	Faults netx.Stats `json:"faults"`
	// Violations is empty on a passing run.
	Violations []string `json:"violations"`
}

// harness is one run's mutable state.
type harness struct {
	cfg     Config
	targets []string
	httpc   *http.Client
	rng     *rand.Rand

	mu         sync.Mutex // guards violations (the netx observer is concurrent)
	violations []string

	acked     []string          // ids in acknowledgement order
	ackedSet  map[string]bool   // membership for acked
	canonical map[string][]byte // id -> first verified result bytes
	report    Report
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

// Run drives cfg.Ops generated operations against targets through
// httpc, then heals fabric, drains every acknowledged job and checks
// the invariants. fabric may be nil (a clean network; the partition
// and corruption invariants then check vacuously).
func Run(cfg Config, targets []string, httpc *http.Client, fabric *netx.Net) Report {
	cfg = cfg.withDefaults()
	h := &harness{
		cfg:       cfg,
		targets:   targets,
		httpc:     httpc,
		rng:       rand.New(rand.NewSource(int64(cfg.Seed))),
		ackedSet:  make(map[string]bool),
		canonical: make(map[string][]byte),
	}
	h.report.Seed = cfg.Seed

	if fabric != nil {
		// Deadline monotonicity: every forwarded peer request must
		// advertise at most the budget the original caller supplied —
		// a hop that inflates its deadline defeats admission control
		// downstream.
		fabric.Observe(func(o netx.Obs) {
			if o.Header.Get(wire.ForwardedHeader) == "" {
				return
			}
			v := o.Header.Get(wire.DeadlineHeader)
			if v == "" {
				return
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				h.violate("op %d %s->%s: unparseable forwarded deadline %q", o.Op, o.Src, o.Dst, v)
				return
			}
			if d > cfg.Deadline {
				h.violate("op %d %s->%s: forwarded deadline %v exceeds caller budget %v", o.Op, o.Src, o.Dst, d, cfg.Deadline)
			}
		})
		defer fabric.Observe(nil)
	}

	for i := 0; i < cfg.Ops; i++ {
		h.step()
	}
	h.report.Ops = cfg.Ops

	if fabric != nil {
		fabric.Heal()
	}
	h.drain()
	h.checkBreakers()

	if fabric != nil {
		h.report.Faults = fabric.Stats()
	}
	h.mu.Lock()
	h.report.Violations = append([]string(nil), h.violations...)
	h.mu.Unlock()
	h.report.Acked = len(h.acked)
	return h.report
}

// step drives one generated operation.
func (h *harness) step() {
	target := h.targets[h.rng.Intn(len(h.targets))]
	switch draw := h.rng.Float64(); {
	case draw < 0.25:
		h.report.Predicts++
		h.post(target, "/v1/predict", h.predictBody(), "")
	case draw < 0.40:
		h.report.Bounds++
		h.post(target, "/v1/bounds", h.boundsBody(), "")
	case draw < 0.70:
		h.report.Submits++
		h.submit(target, "/v1/simulate", h.simBody())
	case draw < 0.80:
		h.report.Batches++
		h.batch(target)
	default:
		h.report.Polls++
		h.poll(target)
	}
}

// Small deterministic request pools: few enough distinct bodies that
// dedup, cache hits and cross-node polling all get exercised, cheap
// enough that a soak of hundreds of ops stays fast.

func (h *harness) simBody() string {
	return fmt.Sprintf(`{"topo":{"kind":"star","n":3},"v":4,"msg_len":8,"rate":0.002,"seed":%d}`, 1+h.rng.Intn(3))
}

func (h *harness) predictBody() string {
	rates := []string{"0.001", "0.002", "0.004"}
	return fmt.Sprintf(`{"topo":{"kind":"star","n":%d},"v":4,"msg_len":16,"rate":%s}`, 3+h.rng.Intn(2), rates[h.rng.Intn(len(rates))])
}

func (h *harness) boundsBody() string {
	return fmt.Sprintf(`{"topo":{"kind":"star","n":4},"v":6,"msg_len":32,"rate":0.00%d}`, 2+h.rng.Intn(3))
}

// exchange performs one HTTP round trip with the run's deadline,
// returning the status, headers and fully-read body; ok is false on
// any transport failure (tolerated weather while faults fire).
func (h *harness) exchange(method, url, body string) (int, http.Header, []byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Deadline)
	defer cancel()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		h.report.Errors++
		return 0, nil, nil, false
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(wire.DeadlineHeader, h.cfg.Deadline.String())
	resp, err := h.httpc.Do(req)
	if err != nil {
		h.report.Errors++
		return 0, nil, nil, false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		h.report.Errors++
		return 0, nil, nil, false
	}
	return resp.StatusCode, resp.Header, b, true
}

// verified extracts the trustworthy result bytes from a response, if
// any: the advertised checksum is checked against both wire shapes
// (raw result body, job envelope) exactly as the production client
// does. A mismatch counts as detected corruption and yields nothing.
func (h *harness) verified(hdr http.Header, body []byte) (id string, result []byte, ok bool) {
	var env wire.Job
	if err := json.Unmarshal(body, &env); err != nil || env.ID == "" {
		return "", nil, false
	}
	if !validJobID(env.ID) {
		h.report.CorruptRejected++
		return "", nil, false
	}
	if !env.Finished() {
		return env.ID, nil, true
	}
	if sum := hdr.Get(wire.ResultSumHeader); sum != "" && wire.ResultSum(env.Result) != sum {
		h.report.CorruptRejected++
		return env.ID, nil, true // the ack is real, the bytes are not
	}
	return env.ID, env.Result, true
}

// validJobID reports whether id has the only shape the server ever
// mints: "sha256:" + 64 lowercase hex digits. Acknowledgement
// envelopes carry no checksum (there is no result yet to sum), so a
// corrupted ack can hand the driver a phantom id — but the fixed
// content-hash shape makes any flipped byte detectable.
func validJobID(id string) bool {
	const prefix = "sha256:"
	if len(id) != len(prefix)+64 || id[:len(prefix)] != prefix {
		return false
	}
	for i := len(prefix); i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ack records a job acknowledgement and, when verified bytes came
// along, checks byte-identity against every earlier copy.
func (h *harness) ack(id string, result []byte) {
	if id == "" {
		return
	}
	if !h.ackedSet[id] {
		h.ackedSet[id] = true
		h.acked = append(h.acked, id)
	}
	if result == nil {
		return
	}
	if prev, seen := h.canonical[id]; seen {
		if !bytes.Equal(prev, result) {
			h.violate("job %s: result bytes drifted between copies", id)
		}
		return
	}
	h.canonical[id] = append([]byte(nil), result...)
}

// post drives one synchronous compute request; the response body is
// checksum-verified but otherwise only availability-weather.
func (h *harness) post(target, path, body, _ string) {
	status, hdr, b, ok := h.exchange(http.MethodPost, "http://"+target+path, body)
	if !ok || status >= 500 {
		h.report.Errors++
		return
	}
	if status == http.StatusOK {
		if sum := hdr.Get(wire.ResultSumHeader); sum != "" && wire.ResultSum(b) != sum {
			h.report.CorruptRejected++
		}
	}
}

// submit drives one async submission and records the acknowledgement.
func (h *harness) submit(target, path, body string) {
	status, hdr, b, ok := h.exchange(http.MethodPost, "http://"+target+path, body)
	if !ok || status >= 400 {
		h.report.Errors++
		return
	}
	if id, result, ok := h.verified(hdr, b); ok {
		h.ack(id, result)
	}
}

// batch drives one batched submission (two items) and records every
// per-item acknowledgement.
func (h *harness) batch(target string) {
	body := fmt.Sprintf(`{"items":[{"kind":"simulate","config":%s},{"kind":"simulate","config":%s}]}`, h.simBody(), h.simBody())
	status, _, b, ok := h.exchange(http.MethodPost, "http://"+target+"/v1/jobs:batch", body)
	if !ok || status != http.StatusOK {
		h.report.Errors++
		return
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		h.report.Errors++
		return
	}
	for _, it := range resp.Items {
		if !validJobID(it.ID) {
			h.report.CorruptRejected++
			continue
		}
		h.ack(it.ID, nil)
	}
}

// poll drives one job poll for a previously acknowledged id.
func (h *harness) poll(target string) {
	if len(h.acked) == 0 {
		return
	}
	id := h.acked[h.rng.Intn(len(h.acked))]
	status, hdr, b, ok := h.exchange(http.MethodGet, "http://"+target+"/v1/jobs/"+id, "")
	if !ok || status != http.StatusOK {
		h.report.Errors++
		return
	}
	if pid, result, ok := h.verified(hdr, b); ok && pid == id {
		h.ack(id, result)
	}
}

// drain proves no acknowledged job was lost: after the fabric heals,
// every acked id must be served done — with byte-identical, verified
// result bytes — from every target.
func (h *harness) drain() {
	ids := append([]string(nil), h.acked...)
	sort.Strings(ids)
	for _, id := range ids {
		for _, target := range h.targets {
			if !h.drainOne(id, target) {
				h.violate("job %s: acknowledged but not servable from %s after heal", id, target)
			}
		}
	}
}

// drainOne polls one (id, target) pair until a verified done result
// arrives (checking byte-identity) or the attempt budget runs out.
func (h *harness) drainOne(id, target string) bool {
	for attempt := 0; attempt < drainAttempts; attempt++ {
		status, hdr, b, ok := h.exchange(http.MethodGet, "http://"+target+"/v1/jobs/"+id, "")
		if ok && status == http.StatusOK {
			var env wire.Job
			if err := json.Unmarshal(b, &env); err == nil {
				if env.Status == "failed" {
					h.violate("job %s: acknowledged then failed: %s", id, env.Error)
					return true // reported as its own violation, not as lost
				}
				if env.Finished() {
					if sum := hdr.Get(wire.ResultSumHeader); sum != "" && wire.ResultSum(env.Result) != sum {
						h.report.CorruptRejected++
					} else {
						h.ack(id, env.Result)
						return true
					}
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// breakerMetrics is the slice of /metricsz this harness reads.
type breakerMetrics struct {
	Cluster *struct {
		PeerBreakers []struct {
			Route string `json:"route"`
			State string `json:"state"`
		} `json:"peer_breakers"`
	} `json:"cluster"`
}

// checkBreakers proves breaker liveness: with the fabric healed and
// fresh traffic flowing, no peer breaker may stay pinned open. Open
// breakers are given traffic (half-open probes only fire on demand)
// and re-checked.
func (h *harness) checkBreakers() {
	for _, target := range h.targets {
		if !h.breakersRecover(target) {
			h.violate("breakers pinned open on %s after faults cleared", target)
		}
	}
}

func (h *harness) breakersRecover(target string) bool {
	for attempt := 0; attempt < drainAttempts; attempt++ {
		status, _, b, ok := h.exchange(http.MethodGet, "http://"+target+"/metricsz", "")
		if ok && status == http.StatusOK {
			var m breakerMetrics
			if err := json.Unmarshal(b, &m); err == nil {
				open := false
				if m.Cluster != nil {
					for _, pb := range m.Cluster.PeerBreakers {
						if pb.State == "open" {
							open = true
						}
					}
				}
				if !open {
					return true
				}
			}
		}
		// Give half-open probes something to probe with. The body
		// varies per attempt so the content-hash ids sweep every ring
		// owner — a breaker only probes when a request actually routes
		// through its peer.
		body := fmt.Sprintf(`{"topo":{"kind":"star","n":4},"v":4,"msg_len":%d,"rate":0.003}`, 8+attempt%64)
		h.post(target, "/v1/predict", body, "")
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
