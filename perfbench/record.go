package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The starperfd response headers the benchmark reads.
const (
	sumHeader   = "X-Starperf-Result-Sum"
	jobHeader   = "X-Starperf-Job"
	cacheHeader = "X-Starperf-Cache"
)

// exchange is one HTTP round trip as the load side saw it. Times are
// offsets from the recorder's epoch.
type exchange struct {
	route  string // predict, bounds, simulate, batch, poll or other
	id     string // content id: the X-Starperf-Job header, or the polled id
	cache  string // X-Starperf-Cache
	result []byte // checksum-verified result bytes, if the response carried any
	start  time.Duration
	header time.Duration // status line received: the acknowledgement
	end    time.Duration // body fully read
}

// capture collects the exchanges one client call makes. The client
// calls the transport on the caller's goroutine, so a capture needs no
// lock as long as one goroutine uses it.
type capture struct{ ex []exchange }

type captureKey struct{}

func withCapture(ctx context.Context, c *capture) context.Context {
	return context.WithValue(ctx, captureKey{}, c)
}

// checks accumulates correctness failures. Any failure fails the run.
type checks struct {
	mu       sync.Mutex
	failures int
	first    []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checks) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}

func (c *checks) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.first...)
}

// recorder sits under the load side's HTTP client. It times every
// exchange, verifies every result-bearing 2xx body against its
// X-Starperf-Result-Sum, and checks that every content id returns
// byte-identical results for the whole run. It reads each body in
// full before handing it on, so the client above it sees the same
// bytes.
type recorder struct {
	epoch  time.Time
	checks *checks

	verified   atomic.Int64
	resultless atomic.Int64 // "done" polls that carried no result

	mu      sync.Mutex
	results map[string][sha256.Size]byte // content id → sum of its first result
	log     []exchange                   // every exchange, kept while tracing
	logging bool
}

func newRecorder(epoch time.Time, c *checks) *recorder {
	return &recorder{epoch: epoch, checks: c, results: make(map[string][sha256.Size]byte)}
}

// wrap returns a RoundTripper that sends through base and records
// into r.
func (r *recorder) wrap(base http.RoundTripper) http.RoundTripper {
	return tripper{base: base, rec: r}
}

type tripper struct {
	base http.RoundTripper
	rec  *recorder
}

func (t tripper) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.rec.roundTrip(t.base, req)
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// setLogging turns the trace log of exchanges on or off.
func (r *recorder) setLogging(on bool) {
	r.mu.Lock()
	r.logging = on
	r.mu.Unlock()
}

// takeLog returns and clears the trace log.
func (r *recorder) takeLog() []exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	r.log = nil
	return out
}

func routeOf(path string) string {
	switch {
	case path == "/v1/predict":
		return "predict"
	case path == "/v1/bounds":
		return "bounds"
	case path == "/v1/simulate":
		return "simulate"
	case path == "/v1/jobs:batch":
		return "batch"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "poll"
	}
	return "other"
}

func (r *recorder) roundTrip(base http.RoundTripper, req *http.Request) (*http.Response, error) {
	ex := exchange{route: routeOf(req.URL.Path), start: r.now()}
	resp, err := base.RoundTrip(req)
	ex.header = r.now()
	if err != nil {
		ex.end = ex.header
		r.keep(req, ex)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = r.now()
	if err != nil {
		r.keep(req, ex)
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if resp.StatusCode/100 == 2 {
		r.verify(&ex, req.URL.Path, resp.Header, body)
	}
	r.keep(req, ex)
	return resp, nil
}

func (r *recorder) keep(req *http.Request, ex exchange) {
	if c, ok := req.Context().Value(captureKey{}).(*capture); ok {
		c.ex = append(c.ex, ex)
	}
	if ex.route == "other" {
		return
	}
	r.mu.Lock()
	if r.logging {
		r.log = append(r.log, ex)
	}
	r.mu.Unlock()
}

// verify extracts the result bytes of a 2xx response and checks them
// against the advertised sum and against every earlier result for the
// same content id.
func (r *recorder) verify(ex *exchange, path string, h http.Header, body []byte) {
	switch ex.route {
	case "predict", "bounds":
		ex.id, ex.cache, ex.result = h.Get(jobHeader), h.Get(cacheHeader), body
	case "poll":
		var env struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			r.checks.fail("poll %s: undecodable envelope: %v", path, err)
			return
		}
		ex.id = strings.TrimPrefix(path, "/v1/jobs/")
		if env.Status != "done" {
			return
		}
		if env.Result == nil {
			// The wire contract lets a "done" envelope omit the result;
			// the client polls again for it. GET /v1/jobs/{id} reads a
			// job's status twice, so a job finishing between the reads
			// is answered this way. Count it, so a change to that path
			// shows.
			r.resultless.Add(1)
			return
		}
		ex.result = env.Result
	default:
		return // acknowledgements carry no result bytes
	}
	sum := h.Get(sumHeader)
	digest := sha256.Sum256(ex.result)
	switch {
	case ex.id == "":
		r.checks.fail("%s: 2xx result without a content id", path)
		return
	case sum == "":
		r.checks.fail("%s %s: 2xx result without %s", path, ex.id, sumHeader)
		return
	case sum != "sha256:"+hex.EncodeToString(digest[:]):
		r.checks.fail("%s %s: result does not match its %s", path, ex.id, sumHeader)
		return
	}
	r.verified.Add(1)
	r.mu.Lock()
	prev, seen := r.results[ex.id]
	if !seen {
		r.results[ex.id] = digest
	}
	r.mu.Unlock()
	if seen && prev != digest {
		r.checks.fail("%s: content id returned two different result bodies", ex.id)
	}
}
