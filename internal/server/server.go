// Package server is the HTTP serving layer of the repository
// (cmd/starperfd): a stdlib net/http JSON API over the analytical
// model, the worst-case bound engine, the flit-level simulator and
// the Figure 1 sweep harness.
//
// Layering. Every job kind is one row of the registry (kinds.go):
// its name, its route, whether it answers synchronously, and one
// parse step — strict decode, defaults, prepare, content hash
// (internal/jobs) and canonical journal meta. Every path that
// touches a job dispatches through that table: the one compute
// handler each kind's POST route mounts, the items of
// POST /v1/jobs:batch, journal recovery, cluster forwarding and
// admission pricing. Sync kinds (predict, bounds) answer with the
// result bytes; async kinds (simulate, sweep) answer with a job id to
// poll at GET /v1/jobs/{id}. All of them run on one bounded jobs.Pool
// — singleflight on the content id, typed backpressure — and store
// their marshalled results in the two-tier internal/cache keyed by
// the same id, so an identical request is a cache hit with a
// byte-identical body, an in-flight duplicate shares the computation,
// and only genuinely new work costs anything.
//
// Operational surface: GET /healthz liveness, GET /metricsz (pool
// depth, cache hit/miss/evict counters, per-route latency
// histograms), request-body size limits, a server-wide concurrency
// cap, and graceful shutdown that drains in-flight jobs
// (cmd/starperfd wires SIGINT/SIGTERM to Close).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"starperf/internal/cache"
	"starperf/internal/cfgerr"
	"starperf/internal/cluster"
	"starperf/internal/jobs"
	"starperf/internal/journal"
	"starperf/internal/model"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/wire"
)

// Config sizes a Server. The zero value is usable.
type Config struct {
	// Workers and QueueDepth size the job pool (defaults NumCPU
	// and 256).
	Workers    int
	QueueDepth int
	// JobTimeout bounds one job's wall clock (default 0: jobs are
	// cycle-bounded by their own configs).
	JobTimeout time.Duration
	// Cache configures the result store (see cache.Config).
	Cache cache.Config
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests; excess requests
	// are refused with 503 (default 256).
	MaxInFlight int
	// Journal, when set, makes the job pool crash-safe: lifecycle
	// records are fsynced to this WAL and Recover replays what a
	// crash interrupted. The Server does not own the journal — the
	// caller opens it (journal.Open) and closes it after Close.
	Journal *journal.Journal
	// DefaultDeadline is the patience assumed for requests that carry
	// neither a context deadline nor an X-Starperf-Deadline header
	// (default 30s); admission control sheds a request whose
	// estimated queue wait exceeds its deadline.
	DefaultDeadline time.Duration
	// Breaker tunes the per-route circuit breaker guarding the
	// compute routes.
	Breaker BreakerConfig
	// Ring, when set, makes this node one member of a sharded cluster
	// (see internal/cluster and cluster.go): compute requests for ids
	// a peer owns are forwarded there, failing over down the ring when
	// the owner is unreachable; finished results are filled from peer
	// caches after verification; /metricsz reports the routing
	// counters. Every member must build its ring from the same member
	// list, or nodes disagree about ownership.
	Ring *cluster.Ring
	// PeerHTTP is the HTTP client peers are reached with (default a
	// plain http.Client; tests inject one bound to test listeners).
	PeerHTTP *http.Client
	// PeerTimeout bounds one peer cache fill or cross-node job lookup
	// (default 2s). Forwarded compute requests are budgeted by the
	// caller's own deadline instead.
	PeerTimeout time.Duration
	// PeerScheme is the URL scheme peers are reached by (default
	// "http" — cluster traffic is assumed to run on a trusted
	// network, as the README documents).
	PeerScheme string
	// PeerBreaker tunes the per-peer circuit breakers that keep a
	// dead or flapping peer probed instead of hammered.
	PeerBreaker BreakerConfig
	// ProbeEvery rate-limits the journal space probes a read-only node
	// issues before refusing an async submit (default 1s; negative
	// probes on every refusal, which drills use so recovery is
	// immediate). Irrelevant without a Journal.
	ProbeEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	if c.PeerHTTP == nil {
		c.PeerHTTP = &http.Client{}
	}
	if c.PeerScheme == "" {
		c.PeerScheme = "http"
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	return c
}

// Server routes the starperfd API. Construct with New, mount
// Handler, and Close on the way out.
type Server struct {
	cfg      Config // with defaults applied
	pool     *jobs.Pool
	cache    *cache.Cache
	journal  *journal.Journal
	mux      *http.ServeMux
	metrics  *metrics
	breakers *breakerSet
	cluster  *peerNet // nil when unclustered
	sem      chan struct{}
	shed     atomic.Uint64

	// Read-only degradation (PR 12): when the journal trips on
	// ENOSPC, async submits are refused until a probe proves space
	// returned. lastProbe rate-limits those probes; readOnly503
	// counts the refusals for /metricsz.
	lastProbe   atomic.Int64
	readOnly503 atomic.Uint64

	// Batch ingestion counters (PR 10), reported on /metricsz.
	batches    atomic.Uint64
	batchItems atomic.Uint64
	batchShed  atomic.Uint64
	batchMax   atomic.Int64
}

// New builds a Server and starts its job pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		pool: jobs.NewPool(jobs.PoolConfig{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			JobTimeout: cfg.JobTimeout,
			Journal:    cfg.Journal,
		}),
		cache:    store,
		journal:  cfg.Journal,
		mux:      http.NewServeMux(),
		metrics:  newMetrics(),
		breakers: newBreakerSet(cfg.Breaker),
		sem:      make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.Ring != nil {
		s.cluster = newPeerNet(cfg)
	}
	// The compute routes run behind the breaker and admission control;
	// the read-only operational routes never shed — you must be able
	// to poll a job or read /metricsz on an overloaded server.
	for _, k := range registry {
		s.mux.HandleFunc("POST "+k.route, s.instrument(k.route, s.guard(k, s.serve(k))))
	}
	// The batch route runs its own per-item admission (one decision
	// priced at batch cost, partial acceptance — see batch.go), so it
	// mounts under instrument only, not guard.
	s.mux.HandleFunc("POST /v1/jobs:batch", s.instrument("/v1/jobs:batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/ring/{id}", s.instrument("/v1/ring", s.handleRing))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metricsz", s.instrument("/metricsz", s.handleMetricsz))
	return s, nil
}

// Recover replays a journal's incomplete records into the pool: each
// is parsed back from its journaled kind and canonical request body
// by the same registry step a live request takes, or skipped when the
// cache already holds its result. Call once after New, before serving
// traffic.
func (s *Server) Recover(rec *journal.Recovery) jobs.Recovery {
	if rec == nil {
		return jobs.Recovery{}
	}
	return s.pool.Recover(rec.Incomplete, func(id, name string, req []byte) (jobs.Func, bool, error) {
		if _, ok := s.cache.Get(id); ok {
			return nil, false, nil
		}
		j, err := parseKind(name, req)
		if err != nil {
			return nil, false, fmt.Errorf("server: journaled %q job: %w", name, err)
		}
		return s.runAndStore(id, j.run), true, nil
	})
}

// Handler returns the routed API.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the job pool (metrics, tests).
func (s *Server) Pool() *jobs.Pool { return s.pool }

// Cache exposes the result store (metrics, tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Close drains the job pool within ctx's budget.
func (s *Server) Close(ctx context.Context) error { return s.pool.Shutdown(ctx) }

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the concurrency cap, the body
// limit and per-route latency accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			reply(w, http.StatusServiceUnavailable,
				failure(wire.ClassQueueFull, "server at concurrency cap", s.queueWait()))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes) // never nil on a server request
		if s.cluster != nil {
			// Name the serving node; a relayed peer response overwrites
			// this with the node that actually did the work.
			w.Header().Set(wire.NodeHeader, s.cluster.ring.Self())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.metrics.observe(route, sw.status, time.Since(start))
	}
}

// guard stacks the failure-protection layers in front of a kind's
// compute handler: deadline-aware admission control first, priced at
// the kind's own expected run time, the circuit breaker second. The
// order matters — breakers.allow consumes the single half-open probe
// slot, and only observe releases it, so every path between the two
// must reach the handler. Shedding after allow would leak the probe
// and pin the route open forever (likely, too: at half-open time the
// backlog that tripped the breaker is often still there). Admission
// sheds and breaker rejections return before allow, so neither feeds
// the breaker's outcome window — its own refusals would otherwise
// poison the sample.
func (s *Server) guard(k *jobKind, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		adm := s.admission(r)
		if shed := adm.admit(k.name); shed != nil {
			reply(w, http.StatusTooManyRequests, *shed)
			return
		}
		ok, wait := s.breakers.allow(k.route)
		if !ok {
			reply(w, http.StatusServiceUnavailable, failure(wire.ClassQueueFull,
				"circuit breaker open for "+k.route, wait))
			return
		}
		gw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Observe via defer so a panicking handler still reports (as a
		// failure — net/http turns the panic into a dead connection);
		// otherwise a half-open probe that panicked would leak the
		// probe slot exactly like a shed one.
		panicked := true
		defer func() {
			s.breakers.observe(k.route, panicked || gw.status >= 500)
		}()
		h(gw, r)
		panicked = false
	}
}

// readBody drains a request body into memory (already bounded by
// MaxBytesReader). Handlers keep the raw bytes because the cluster
// path forwards them verbatim to a peer — which re-normalises and
// re-hashes them to the same content id.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			reply(w, http.StatusRequestEntityTooLarge, failure(wire.ClassInvalidConfig,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), noRetry))
			return nil, false
		}
		reply(w, http.StatusBadRequest, failure(wire.ClassInvalidConfig,
			"reading request: "+err.Error(), noRetry))
		return nil, false
	}
	return raw, true
}

// decodeStrict parses a JSON body strictly — unknown fields are
// errors, because a silently dropped typo would mint a fresh cache
// key for a request the caller never meant to make. Failures are
// configuration errors.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return cfgerr.New("malformed request: " + err.Error())
	}
	return nil
}

// writeErr maps a computation or submission error onto the wire via
// classifyErr.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, we := s.classifyErr(err)
	reply(w, status, we)
}

// classifyErr maps an error onto the v1 wire contract: status code
// plus the wire.Error a standalone request would receive. The batch
// handler uses it directly to build per-item entries.
func (s *Server) classifyErr(err error) (int, wire.Error) {
	var unreachable *routing.UnreachableError
	switch {
	case errors.Is(err, cfgerr.ErrInvalid):
		return http.StatusBadRequest, failure(wire.ClassInvalidConfig, err.Error(), noRetry)
	case errors.Is(err, model.ErrSaturated):
		return http.StatusUnprocessableEntity, failure(wire.ClassSaturated, err.Error(), noRetry)
	case errors.As(err, &unreachable):
		return http.StatusUnprocessableEntity, failure(wire.ClassUnreachable, err.Error(), noRetry)
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests, failure(wire.ClassQueueFull, err.Error(), s.queueWait())
	case errors.Is(err, jobs.ErrPoolClosed):
		return http.StatusServiceUnavailable, failure(wire.ClassQueueFull, err.Error(), time.Second)
	case errors.Is(err, jobs.ErrReadOnly):
		// The pool-level backstop of the refuseReadOnly gate: a
		// submission that raced past the handler check still refuses
		// with the read_only contract.
		return http.StatusServiceUnavailable, failure(wire.ClassReadOnly, err.Error(), time.Second)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, failure(wire.ClassTimeout, err.Error(), noRetry)
	default:
		return http.StatusInternalServerError, failure(wire.ClassInternal, err.Error(), noRetry)
	}
}

// runAndStore adapts a runner into a pool Func that caches its
// marshalled result under id and returns the exact stored bytes.
func (s *Server) runAndStore(id string, run runner) jobs.Func {
	return func(ctx context.Context) (any, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		s.cache.Put(id, body)
		return body, nil
	}
}

// refuseReadOnly refuses an async submission, and reports that it
// did, when the journal cannot make its acceptance durable (ENOSPC):
// a 503 with the read_only class and a retry hint sized to the probe
// interval — the soonest a retry could observe a recovered disk.
// Before refusing, it issues at most one space probe per ProbeEvery,
// so a disk that recovered flips the node back to read-write on the
// next submit instead of waiting for organic sync traffic to commit
// something. Sync routes never consult this: they acknowledge nothing
// they have not already computed.
func (s *Server) refuseReadOnly(w http.ResponseWriter) bool {
	if s.journal == nil || !s.journal.ReadOnly() {
		return false
	}
	now := time.Now().UnixNano()
	last := s.lastProbe.Load()
	if now-last >= int64(s.cfg.ProbeEvery) && s.lastProbe.CompareAndSwap(last, now) {
		if s.journal.Probe() == nil {
			return false
		}
	}
	if !s.journal.ReadOnly() {
		return false
	}
	s.readOnly503.Add(1)
	reply(w, http.StatusServiceUnavailable, failure(wire.ClassReadOnly,
		"journal is read-only (disk full): async submissions refused until space returns",
		max(s.cfg.ProbeEvery, time.Second)))
	return true
}

// handleJob serves GET /v1/jobs/{id}: resolve from the cache first
// (results outlive the pool's retention window there), then from the
// pool registry, then — on a clustered node — from the peers that may
// own the job. Done responses advertise the sha256 of their result
// bytes (reply sets X-Starperf-Result-Sum) so a peer filling its
// cache can verify what it received.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if body, ok := s.cache.Get(id); ok {
		reply(w, http.StatusOK, wire.Job{ID: id, Status: string(jobs.StatusDone), Result: body})
		return
	}
	j, ok := s.pool.Get(id)
	if !ok {
		if s.clusterJobLookup(w, r, id) {
			return
		}
		reply(w, http.StatusNotFound, failure(wire.ClassUnreachable, "unknown job "+id, noRetry))
		return
	}
	// Done and failed are terminal, so Result agrees with the status
	// read first.
	st := j.Status()
	body := wire.Job{ID: id, Status: string(st)}
	switch st {
	case jobs.StatusDone:
		v, _ := j.Result()
		body.Result = v.([]byte)
	case jobs.StatusFailed:
		_, err := j.Result()
		body.Error = err.Error()
	}
	reply(w, http.StatusOK, body)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := wire.Health{OK: true}
	if s.journal != nil {
		body.JournalReadOnly = s.journal.ReadOnly()
	}
	if s.cluster != nil {
		body.Cluster = &wire.Ring{
			Self:         s.cluster.ring.Self(),
			Members:      s.cluster.ring.Members(),
			VirtualNodes: s.cluster.ring.VirtualNodes(),
		}
	}
	reply(w, http.StatusOK, body)
}

// Metricsz is the GET /metricsz response body. Journal is null when
// the server runs without one.
type Metricsz struct {
	Pool   obs.PoolStats    `json:"pool"`
	Cache  obs.CacheStats   `json:"cache"`
	Routes []obs.RouteStats `json:"routes"`
	// JournalReadOnly mirrors the healthz flag (also inside Journal
	// as read_only); ReadOnlyRefused counts async submits 503ed while
	// the journal could not take them.
	JournalReadOnly bool               `json:"journal_readonly"`
	ReadOnlyRefused uint64             `json:"read_only_refused"`
	Journal         *obs.JournalStats  `json:"journal,omitempty"`
	Batch           obs.BatchStats     `json:"batch"`
	Admission       obs.AdmissionStats `json:"admission"`
	Breakers        []obs.BreakerStats `json:"breakers"`
	// Cluster is null on an unclustered node.
	Cluster *obs.ClusterStats `json:"cluster,omitempty"`
}

// handleMetricsz serves GET /metricsz.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	body := Metricsz{
		Pool:     s.pool.Stats(),
		Cache:    s.cache.Stats(),
		Routes:   s.metrics.report(),
		Breakers: s.breakers.report(),
	}
	if s.journal != nil {
		st := s.journal.Stats()
		body.Journal = &st
		body.JournalReadOnly = st.ReadOnly
	}
	body.ReadOnlyRefused = s.readOnly503.Load()
	body.Batch = obs.BatchStats{
		Batches:  s.batches.Load(),
		Items:    s.batchItems.Load(),
		MaxItems: int(s.batchMax.Load()),
		Shed:     s.batchShed.Load(),
	}
	body.Admission.Shed = s.shed.Load()
	for _, b := range body.Breakers {
		body.Admission.BreakerRejected += b.Rejected
	}
	if s.cluster != nil {
		st := s.cluster.stats()
		body.Cluster = &st
	}
	reply(w, http.StatusOK, body)
}
