package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starperf/internal/cache"
	"starperf/internal/wire"
)

// newTestServer builds a Server plus an httptest front end, torn down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache.Dir == "" {
		cfg.Cache.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const predictS4 = `{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":0.004}`

// TestPredictEndToEnd drives the synchronous path: healthz, a cold
// predict (miss), and the identical request again — which must be a
// cache hit with a byte-identical body.
func TestPredictEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != 200 || !bytes.Contains(body, []byte("true")) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", predictS4)
	first := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("predict: %d %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Starperf-Cache"); got != "miss" {
		t.Fatalf("cold predict cache header %q, want miss", got)
	}
	id := resp.Header.Get("X-Starperf-Job")
	if !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("job header %q not a content hash", id)
	}
	var res wire.PredictResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Saturated || !(res.LatencyCycles > 0) || !res.Converged {
		t.Fatalf("implausible predict result: %+v", res)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", predictS4)
	second := readBody(t, resp)
	if got := resp.Header.Get("X-Starperf-Cache"); got != "hit" {
		t.Fatalf("warm predict cache header %q, want hit", got)
	}
	if resp.Header.Get("X-Starperf-Job") != id {
		t.Fatal("same request produced a different job id")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n %s\n %s", first, second)
	}
}

// TestPredictErrors covers the wire error contract: invalid configs
// are 400 invalid_config, typos are 400 invalid_config (strict
// decoding), saturation is a 200 with saturated:true. An invalid
// config fails at parse, before any job reaches the pool, including
// a star the model's cycle types cover (up to S_12) but the run's
// closed-form shape does not (beyond stargraph.MaxEnumerableN).
func TestPredictErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"ring","n":4},"v":4,"msg_len":16,"rate":0.004}`)
	body := readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("bad topology: %d %s", resp.StatusCode, body)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"star","n":4},"vee":4}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"star","n":11},"v":8,"msg_len":32,"rate":0.001}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("S11: %d %s", resp.StatusCode, body)
	}
	if st := s.Pool().Stats(); st.Submitted != 0 {
		t.Fatalf("invalid predicts reached the pool: %+v", st)
	}

	resp = postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":5}`)
	body = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("saturated predict: %d %s", resp.StatusCode, body)
	}
	var res wire.PredictResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("rate 5 msgs/node/cycle not saturated: %+v", res)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/sha256:doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != 404 {
		t.Fatalf("unknown job: %d %s", resp.StatusCode, body)
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queue,
// failing the test on timeout.
func pollJob(t *testing.T, base, id string) wire.Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("poll %s: %d %s", id, resp.StatusCode, body)
		}
		var jb wire.Job
		if err := json.Unmarshal(body, &jb); err != nil {
			t.Fatal(err)
		}
		if jb.Status == "done" || jb.Status == "failed" {
			return jb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at deadline", id, jb.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const simulateS4 = `{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":0.01,"warmup":500,"measure":2000}`

// TestSimulateLifecycle drives the async path end to end: submit,
// poll to completion, fetch the result, and resubmit — which must
// answer done immediately from the cache.
func TestSimulateLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/simulate", simulateS4)
	body := readBody(t, resp)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub wire.Job
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "sha256:") {
		t.Fatalf("job id %q not a content hash", sub.ID)
	}

	jb := pollJob(t, ts.URL, sub.ID)
	if jb.Status != "done" {
		t.Fatalf("job failed: %s", jb.Error)
	}
	var res wire.SimulateResult
	if err := json.Unmarshal(jb.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !(res.MeanLatency > 0) || res.Measured == 0 {
		t.Fatalf("implausible simulate result: %+v", res)
	}

	// Resubmitting the identical request answers from the cache.
	resp = postJSON(t, ts.URL+"/v1/simulate", simulateS4)
	body = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var again wire.Job
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID || again.Status != "done" {
		t.Fatalf("resubmit = %+v, want done %s", again, sub.ID)
	}

	// And a fresh poll returns the same result bytes.
	jb2 := pollJob(t, ts.URL, sub.ID)
	if !bytes.Equal(jb.Result, jb2.Result) {
		t.Fatalf("result bytes changed between polls:\n %s\n %s", jb.Result, jb2.Result)
	}
}

// TestSweepEndpoint runs a tiny Figure 1 panel through /v1/sweep and
// checks the panel structure comes back.
func TestSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (small) simulation sweep")
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"panel":"a","points":1,"seeds":[1],"warmup":300,"measure":1000,"workers":2}`)
	body := readBody(t, resp)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub wire.Job
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	jb := pollJob(t, ts.URL, sub.ID)
	if jb.Status != "done" {
		t.Fatalf("sweep failed: %s", jb.Error)
	}
	var panel wire.SweepResult
	if err := json.Unmarshal(jb.Result, &panel); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(panel.Title, "Figure 1(a)") || len(panel.Series) != 2 {
		t.Fatalf("implausible panel: title %q, %d series", panel.Title, len(panel.Series))
	}
	for _, s := range panel.Series {
		if len(s.Points) != 1 {
			t.Fatalf("series %s has %d points, want 1", s.Name, len(s.Points))
		}
	}
}

// TestSimulateRejectsTooManyVCs: the simulator keeps one 64-bit
// owned-VC mask per channel, so a simulate request above 64 virtual
// channels is a 400 invalid_config at submission, not a failed job.
func TestSimulateRejectsTooManyVCs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/simulate",
		`{"topo":{"kind":"star","n":4},"v":65,"msg_len":16,"rate":0.01,"warmup":500,"measure":2000}`)
	body := readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) ||
		!bytes.Contains(body, []byte("at most 64")) {
		t.Fatalf("65-VC simulate: %d %s", resp.StatusCode, body)
	}
}

// TestSweepRejectsTooManyWorkers bounds the sweep's own parallelism
// the way points and seeds are bounded: a request may not make the
// node start an arbitrary number of simulations at once.
func TestSweepRejectsTooManyWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"panel":"a","points":1,"seeds":[1],"warmup":300,"measure":1000,"workers":65}`)
	body := readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("65-worker sweep: %d %s", resp.StatusCode, body)
	}
}

// TestSingleflightOverHTTP is the serving layer's dedup guarantee:
// concurrent identical requests share one computation, observed
// through the pool's dedup counter, and every caller reads the same
// bytes.
func TestSingleflightOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Heavy enough that it is still in flight while the duplicates
	// arrive (S5 is 120 nodes; this runs for well over the handful of
	// milliseconds four local POSTs take).
	const heavy = `{"topo":{"kind":"star","n":5},"v":6,"msg_len":32,"rate":0.01,"warmup":8000,"measure":30000}`

	resp := postJSON(t, ts.URL+"/v1/simulate", heavy)
	body := readBody(t, resp)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub wire.Job
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	const dups = 4
	for i := 0; i < dups; i++ {
		resp := postJSON(t, ts.URL+"/v1/simulate", heavy)
		db := readBody(t, resp)
		var d wire.Job
		if err := json.Unmarshal(db, &d); err != nil {
			t.Fatal(err)
		}
		if d.ID != sub.ID {
			t.Fatalf("duplicate %d got id %s, want %s", i, d.ID, sub.ID)
		}
	}

	st := s.Pool().Stats()
	if st.Submitted != 1 || st.Deduped != dups {
		t.Fatalf("pool stats %+v, want 1 submitted / %d deduped", st, dups)
	}

	jb := pollJob(t, ts.URL, sub.ID)
	if jb.Status != "done" {
		t.Fatalf("job failed: %s", jb.Error)
	}
	jb2 := pollJob(t, ts.URL, sub.ID)
	if !bytes.Equal(jb.Result, jb2.Result) {
		t.Fatal("deduplicated result not byte-stable")
	}

	// The dedup is visible on the public metrics surface too.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	mbody := readBody(t, mresp)
	var m Metricsz
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.Pool.Deduped != dups || m.Cache.Puts == 0 {
		t.Fatalf("metricsz %s", mbody)
	}
	if len(m.Routes) == 0 {
		t.Fatal("metricsz reports no routes")
	}
}

// TestConcurrencyCap: requests past the concurrency cap shed with 503
// instead of queueing without bound.
func TestConcurrencyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.sem = make(chan struct{}, 1)
	// Saturate the one slot from inside the handler semaphore by
	// occupying it directly.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 503 || !bytes.Contains(body, []byte("queue_full")) {
		t.Fatalf("capped request: %d %s", resp.StatusCode, body)
	}
}

// TestBodyLimit: oversized request bodies are refused with 413.
func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	resp := postJSON(t, ts.URL+"/v1/predict",
		`{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":0.004,"routing":"`+strings.Repeat("x", 256)+`"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, body)
	}
}

// TestGoldenWireHashes pins the canonical job-hash strings of the
// wire schema. A change here is a cache-compatibility break: bump
// jobs.SchemaVersion rather than silently re-keying every deployed
// result store.
func TestGoldenWireHashes(t *testing.T) {
	predict := PredictRequest{
		Topo: TopoSpec{Kind: "star", N: 4}, V: 4, MsgLen: 16, Rate: 0.004,
	}
	simulate := SimulateRequest{
		Topo: TopoSpec{Kind: "star", N: 4}, V: 4, MsgLen: 16, Rate: 0.01,
		Warmup: 500, Measure: 2000,
	}
	sweep := SweepRequest{Panel: "a"}

	cases := []struct {
		kind string
		req  any
		want string
	}{
		{"predict", predict, "sha256:5075bd4abcf14192c577f92fa4656b6ff1770e091b263ba3fe9b07df4e1671a9"},
		{"simulate", simulate, "sha256:5e2279015da3cec015a7a6ae5096df32f321e3699ab468d60a23bb6c64dd4955"},
		{"sweep", sweep, "sha256:161a21697db35546f1d8472c3302307272815a79013fc2c5dfb747310729e856"},
	}
	for _, c := range cases {
		if h := jobID(t, c.kind, c.req); h != c.want {
			t.Errorf("%s hash = %q, want %q", c.kind, h, c.want)
		}
	}

	// Defaults are normalised before hashing: spelling a default
	// explicitly must not mint a different job.
	explicit := SimulateRequest{
		Topo: TopoSpec{Kind: "star", N: 4}, Routing: "enbc", V: 4, MsgLen: 16, Rate: 0.01,
		BufCap: 2, Seed: 1, Warmup: 500, Measure: 2000, Drain: 120000,
	}
	if he, hs := jobID(t, "simulate", explicit), jobID(t, "simulate", simulate); he != hs {
		t.Fatalf("explicit defaults hash %q != omitted defaults %q", he, hs)
	}
}

// jobID is the content id the registry's parse step, the one
// production path, gives req (a request value, or raw JSON as a
// json.RawMessage).
func jobID(t *testing.T, kind string, req any) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err := parseKind(kind, raw)
	if err != nil {
		t.Fatalf("%s %s: %v", kind, raw, err)
	}
	return j.id
}

// TestServerRejectsBadCacheConfig: construction surfaces cache config
// errors instead of serving with a broken store.
func TestServerRejectsBadCacheConfig(t *testing.T) {
	if _, err := New(Config{Cache: cache.Config{MaxBytes: -1}}); err == nil {
		t.Fatal("negative cache bound accepted")
	}
}

// TestRouteMetricsAccumulate: the per-route histogram surfaces
// request counts and a plausible latency sketch.
func TestRouteMetricsAccumulate(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 100; i++ {
		m.observe("/v1/predict", 200, time.Duration(i)*time.Microsecond)
	}
	m.observe("/v1/predict", 400, 5*time.Millisecond)
	m.observe("/healthz", 200, 10*time.Microsecond)
	rep := m.report()
	if len(rep) != 2 {
		t.Fatalf("%d routes, want 2", len(rep))
	}
	// report is sorted by route name
	if rep[0].Route != "/healthz" || rep[1].Route != "/v1/predict" {
		t.Fatalf("route order %q, %q", rep[0].Route, rep[1].Route)
	}
	p := rep[1]
	if p.Count != 101 || p.Errors != 1 {
		t.Fatalf("predict route stats %+v", p)
	}
	if p.MaxMicros != 5000 || !(p.MeanMicros > 0) {
		t.Fatalf("latency stats %+v", p)
	}
	if p.P99Micros < p.P50Micros || p.P50Micros == 0 {
		t.Fatalf("quantiles not ordered: %+v", p)
	}
}
