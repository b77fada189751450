// Package client is the public Go client for starperfd. It speaks the
// server's JSON API with the retry discipline a well-behaved caller
// owes an overloaded service: exponential backoff with full jitter,
// Retry-After honoured verbatim, context deadlines respected, and
// retries only where they are safe.
//
// Safety of retries comes from the server's content addressing: a
// request's job id is a hash of its canonical body, so resubmitting
// the same request can never duplicate work — the server dedupes
// in-flight copies and serves finished ones from its cache,
// byte-identically. That makes every request here idempotent and
// every 429/503/504/network failure retryable.
//
// Against a sharded cluster the client is ring-aware: LearnRing
// bootstraps the membership from any node's /healthz, job polls
// prefer the id's ring owner, and a dead node makes the client fall
// down the same successor order the servers themselves fail over on.
// A client that never calls LearnRing still works — every node
// answers every request, forwarding internally — it just pays an
// extra hop.
//
// The request and result types are the server's own wire schema
// (internal/wire), aliased here, so the two ends cannot drift. Like
// the ring package, that schema imports only the standard library:
// the client is importable from anywhere without dragging the
// simulator along.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"starperf/internal/cluster"
	"starperf/internal/wire"
)

// The request and result bodies of the API.
type (
	TopoSpec        = wire.TopoSpec
	PredictRequest  = wire.PredictRequest
	PredictResult   = wire.PredictResult
	BoundsRequest   = wire.BoundsRequest
	BoundsResult    = wire.BoundsResult
	BoundsClass     = wire.BoundsClass
	SimulateRequest = wire.SimulateRequest
	SimulateResult  = wire.SimulateResult
	SweepRequest    = wire.SweepRequest
	SweepResult     = wire.SweepResult
	SweepSeries     = wire.SweepSeries
	SweepPoint      = wire.SweepPoint
)

// Config describes a Client. BaseURL is required; everything else
// has workable defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient, when set, replaces http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseBackoff and MaxBackoff bound the exponential backoff
	// schedule (defaults 100ms and 5s). The actual sleep is drawn
	// uniformly from [0, min(MaxBackoff, BaseBackoff·2^attempt)] —
	// full jitter, so a thundering herd decorrelates.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval paces job polling between backoff-worthy events
	// (default 50ms).
	PollInterval time.Duration
	// Seed seeds the jitter source; 0 derives one from the clock.
	// Fixing it makes backoff schedules reproducible in tests.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	return c
}

// Client is a starperfd API client, safe for concurrent use.
type Client struct {
	base   string
	scheme string // member base URLs are scheme://addr
	http   *http.Client
	cfg    Config
	sleep  func(ctx context.Context, d time.Duration) error
	jit    func(max time.Duration) time.Duration

	mu   sync.RWMutex
	ring *cluster.Ring // nil until LearnRing finds a clustered server
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, fmt.Errorf("%w: BaseURL required", ErrConfig)
	}
	cfg = cfg.withDefaults()
	scheme := "http"
	if u, err := url.Parse(cfg.BaseURL); err == nil && u.Scheme != "" {
		scheme = u.Scheme
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return &Client{
		base:   strings.TrimRight(cfg.BaseURL, "/"),
		scheme: scheme,
		http:   cfg.HTTPClient,
		cfg:    cfg,
		sleep:  sleepCtx,
		jit: func(max time.Duration) time.Duration {
			if max <= 0 {
				return 0
			}
			mu.Lock()
			defer mu.Unlock()
			return time.Duration(rng.Int63n(int64(max) + 1))
		},
	}, nil
}

// LearnRing bootstraps cluster membership from the configured node's
// /healthz and rebuilds the same consistent-hash ring the servers
// route by, so subsequent job polls go straight to each id's owner
// and fall down the cluster's own failover order when it is dead.
// Against an unclustered server it is a no-op. Call it again to pick
// up a changed member set (membership is static per deployment, so
// once per process is typical).
func (c *Client) LearnRing(ctx context.Context) error {
	body, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	var env wire.Health
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%w: healthz body: %v", ErrProtocol, err)
	}
	if env.Cluster == nil || len(env.Cluster.Members) == 0 {
		return nil
	}
	// The ring's key placement depends only on the member set and the
	// virtual-node count, not on which member calls itself Self — any
	// member works as the client's vantage point.
	ring, err := cluster.New(cluster.Config{
		Self:         env.Cluster.Members[0],
		Peers:        env.Cluster.Members,
		VirtualNodes: env.Cluster.VirtualNodes,
	})
	if err != nil {
		return fmt.Errorf("%w: rebuilding ring: %v", ErrProtocol, err)
	}
	c.mu.Lock()
	c.ring = ring
	c.mu.Unlock()
	return nil
}

// targets returns the preference-ordered base URLs for a request:
// for a known job id, the id's ring successors (owner first); for
// everything else, the bootstrap node then the other members. The
// bootstrap URL always appears so a ring learned from a stale
// /healthz can never strand the client. Without a ring the list is
// the bootstrap node alone.
func (c *Client) targets(id string) []string {
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	if ring == nil {
		return []string{c.base}
	}
	out := make([]string, 0, ring.Size()+1)
	seen := make(map[string]bool, ring.Size()+1)
	add := func(base string) {
		if !seen[base] {
			seen[base] = true
			out = append(out, base)
		}
	}
	if id != "" {
		for _, m := range ring.Successors(id) {
			add(c.scheme + "://" + m)
		}
	} else {
		add(c.base)
		for _, m := range ring.Members() {
			add(c.scheme + "://" + m)
		}
	}
	add(c.base)
	return out
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// The client's error surface is classified so callers match classes,
// never strings: configuration mistakes wrap ErrConfig, replies that
// break the API contract wrap ErrProtocol, jobs the server reports as
// failed wrap ErrJobFailed, and non-2xx responses are *APIError.
var (
	// ErrConfig classifies client-side configuration mistakes caught
	// before any request is made.
	ErrConfig = errors.New("client: invalid configuration")
	// ErrProtocol classifies well-formed HTTP exchanges whose payload
	// violates the server's API contract (e.g. a job with no id).
	ErrProtocol = errors.New("client: protocol error")
	// ErrJobFailed classifies jobs the server accepted but reports as
	// failed; the server's message is appended.
	ErrJobFailed = errors.New("client: job failed")
	// ErrTornBody classifies a transport failure that struck after
	// some response bytes had already been read — a mid-body
	// connection reset. It is kept distinct from a clean pre-response
	// failure because retrying a torn read is only safe when the
	// request is idempotent and the reassembled result can be
	// verified; starperfd requests are both (content-hash ids, and
	// X-Starperf-Result-Sum checked on every retried body), so the
	// client does retry — but a caller layering non-idempotent work on
	// top can tell the two apart.
	ErrTornBody = errors.New("client: connection lost mid-body")
)

// APIError is a non-2xx response decoded from the server's error
// envelope. Status is the HTTP code; Class the machine-readable
// error class from the v1 wire contract ("invalid_config",
// "queue_full", "saturated", "unreachable", "timeout", "internal").
type APIError struct {
	Status  int
	Class   string
	Message string

	retryAfter time.Duration // server-provided schedule, consumed by backoff
}

func (e *APIError) Error() string {
	return fmt.Sprintf("starperfd: %d %s: %s", e.Status, e.Class, e.Message)
}

// Is maps wire classes back onto the client's sentinel errors: a
// server-side invalid_config rejection matches ErrConfig, so callers
// classify a bad request the same way whether the client or the
// server caught it.
func (e *APIError) Is(target error) bool {
	return target == ErrConfig && e.Class == wire.ClassInvalidConfig
}

// Temporary reports whether the failure is worth retrying: server
// overload, shutdown, breaker, or a timed-out job.
func (e *APIError) Temporary() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attemptResult carries one HTTP attempt's outcome to the retry loop.
type attemptResult struct {
	status int
	body   []byte
	header http.Header
	netErr error // transport-level failure; always retryable
}

// do runs one request with the full retry discipline against the
// default target list. Non-retryable API errors return *APIError at
// once.
func (c *Client) do(ctx context.Context, method, path string, reqBody []byte) ([]byte, http.Header, error) {
	return c.doTargets(ctx, method, c.targets(""), path, reqBody)
}

// doTargets runs one request against a preference-ordered target
// list. A transport error or a 5xx advances to the next target — the
// node is dead or failing, exactly the condition the server-side ring
// fails over on. A 429 stays put: that is backpressure from a healthy
// node, and hopping away from it would dodge the admission control
// the cluster relies on. The retry budget spans all targets.
func (c *Client) doTargets(ctx context.Context, method string, bases []string, path string, reqBody []byte) ([]byte, http.Header, error) {
	var lastErr error
	target := 0
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, lastErr); err != nil {
				return nil, nil, err
			}
		}
		res := c.attempt(ctx, method, bases[target%len(bases)], path, reqBody)
		if res.netErr != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, res.netErr)
			target++
			continue
		}
		if res.status >= 200 && res.status < 300 {
			// A success body that advertises a content sum must match
			// it (PR 12). A mismatch means the bytes were damaged in
			// flight (truncated, corrupted); returning them would hand
			// the caller a partial or wrong result that parses as a
			// real one. Treated like a transport failure: fail over and
			// retry — the recomputed answer is byte-identical, so the
			// next intact copy is the same result.
			if sum := res.header.Get(wire.ResultSumHeader); sum != "" && !sumMatches(res.body, sum) {
				lastErr = fmt.Errorf("%w: %s %s: body does not match advertised %s", ErrProtocol, method, path, wire.ResultSumHeader)
				target++
				continue
			}
			return res.body, res.header, nil
		}
		apiErr := decodeAPIError(res.status, res.body)
		if !apiErr.Temporary() {
			return nil, nil, apiErr
		}
		if ra := parseRetryAfter(res.header); ra > 0 {
			apiErr.retryAfter = ra // header overrides the envelope's ms hint
		}
		lastErr = apiErr
		if res.status >= 500 {
			target++
		}
	}
	return nil, nil, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt performs exactly one HTTP round trip against base.
func (c *Client) attempt(ctx context.Context, method, base, path string, reqBody []byte) attemptResult {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return attemptResult{netErr: err}
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Tell the server how patient we are, so it can shed a doomed
	// request immediately instead of queueing it past our deadline.
	if t, ok := ctx.Deadline(); ok {
		if left := time.Until(t); left > 0 {
			req.Header.Set(wire.DeadlineHeader, left.Round(time.Millisecond).String())
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return attemptResult{netErr: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if len(body) > 0 {
			// The connection died mid-body: some bytes arrived, then
			// the transport failed. Classify distinctly (ErrTornBody)
			// so the retry decision is explicit, and never surface the
			// partial bytes.
			return attemptResult{netErr: fmt.Errorf("%w after %d bytes: %w", ErrTornBody, len(body), err)}
		}
		return attemptResult{netErr: err}
	}
	return attemptResult{status: resp.StatusCode, body: body, header: resp.Header}
}

// sumMatches verifies a response body against its advertised content
// sum. Two shapes cross the wire under the same header: sync routes
// whose body is the result bytes themselves (sum covers the body),
// and job envelopes whose "result" field holds the bytes (sum covers
// that field). A body matching neither way is damaged — truncation
// breaks the envelope parse, a flipped byte breaks the sum.
func sumMatches(body []byte, sum string) bool {
	if wire.ResultSum(body) == sum {
		return true
	}
	var env wire.Job
	if err := json.Unmarshal(body, &env); err != nil || env.Result == nil {
		return false
	}
	return wire.ResultSum(env.Result) == sum
}

// retryAfter rides along on temporary APIErrors so backoff can
// honour the server's explicit schedule.
type retryAfterCarrier interface{ RetryAfter() time.Duration }

func (e *APIError) RetryAfter() time.Duration { return e.retryAfter }

// backoff sleeps before retry n: the server's Retry-After when it
// gave one, otherwise full-jitter exponential backoff. A wait that
// cannot finish inside the context deadline fails immediately — a
// caller with 200ms of patience told to come back in 5s learns the
// request is doomed now, not after blocking out its whole budget.
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) error {
	var d time.Duration
	var carrier retryAfterCarrier
	if errors.As(lastErr, &carrier) && carrier.RetryAfter() > 0 {
		d = carrier.RetryAfter()
	} else {
		max := c.cfg.BaseBackoff << uint(attempt-1)
		if max > c.cfg.MaxBackoff || max <= 0 {
			max = c.cfg.MaxBackoff
		}
		d = c.jit(max)
	}
	if t, ok := ctx.Deadline(); ok && d >= time.Until(t) {
		return context.DeadlineExceeded
	}
	return c.sleep(ctx, d)
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the
// only form starperfd emits).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeAPIError maps a non-2xx body to an *APIError, tolerating
// bodies that are not a v1 envelope (an intermediary's HTML page):
// those keep their status with class "unknown". A v1 retry_after_ms
// seeds the retry schedule (the Retry-After header, when present,
// overrides it with the server's coarser but authoritative figure).
func decodeAPIError(status int, body []byte) *APIError {
	var env wire.ErrorBody
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Class == "" {
		return &APIError{Status: status, Class: "unknown", Message: strings.TrimSpace(string(body))}
	}
	return &APIError{
		Status: status, Class: env.Error.Class, Message: env.Error.Message,
		retryAfter: time.Duration(env.Error.RetryAfterMS) * time.Millisecond,
	}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// Predict evaluates the analytical model synchronously.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (*PredictResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	out, _, err := c.do(ctx, http.MethodPost, "/v1/predict", body)
	if err != nil {
		return nil, err
	}
	var res PredictResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%w: predict response: %v", ErrProtocol, err)
	}
	return &res, nil
}

// PredictBounds evaluates the worst-case delay-bound engine
// synchronously. An unboundable operating point is reported in the
// result (Unboundable true), not as an error.
func (c *Client) PredictBounds(ctx context.Context, req BoundsRequest) (*BoundsResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	out, _, err := c.do(ctx, http.MethodPost, "/v1/bounds", body)
	if err != nil {
		return nil, err
	}
	var res BoundsResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%w: bounds response: %v", ErrProtocol, err)
	}
	return &res, nil
}

// Simulate submits a flit-level simulation and waits for its result,
// polling the job endpoint until done or ctx expires.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResult, error) {
	raw, err := c.runJob(ctx, "/v1/simulate", req)
	if err != nil {
		return nil, err
	}
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%w: simulate result: %v", ErrProtocol, err)
	}
	return &res, nil
}

// Sweep submits a Figure 1 panel sweep and waits for its result.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResult, error) {
	raw, err := c.runJob(ctx, "/v1/sweep", req)
	if err != nil {
		return nil, err
	}
	var res SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%w: sweep result: %v", ErrProtocol, err)
	}
	return &res, nil
}

// runJob drives one async endpoint end to end: submit (with retries),
// then poll GET /v1/jobs/{id} until the job is terminal. Submissions
// are safe to retry blind — the id is a content hash, so the server
// coalesces duplicates instead of re-running them.
func (c *Client) runJob(ctx context.Context, path string, req any) (json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	out, _, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	var job wire.Job
	if err := json.Unmarshal(out, &job); err != nil {
		return nil, fmt.Errorf("%w: job envelope: %v", ErrProtocol, err)
	}
	if job.ID == "" {
		return nil, fmt.Errorf("%w: job submission returned no id", ErrProtocol)
	}
	for {
		// Accepted-from-cache responses are done without the body; one
		// poll fetches it.
		if job.Finished() {
			return job.Result, nil
		}
		if job.Status == "failed" {
			return nil, fmt.Errorf("%w: job %s: %s", ErrJobFailed, job.ID, job.Error)
		}
		if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
			return nil, err
		}
		// Poll the id's ring owner first (it holds the job), falling
		// down the successor order when it is unreachable.
		out, _, err := c.doTargets(ctx, http.MethodGet, c.targets(job.ID), "/v1/jobs/"+job.ID, nil)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(out, &job); err != nil {
			return nil, fmt.Errorf("%w: job poll: %v", ErrProtocol, err)
		}
	}
}
