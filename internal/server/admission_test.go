package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"starperf/internal/wire"
)

// primeBacklog makes the admission estimate large and certain: the
// pool's observed mean job execution time for kind is seeded at
// `mean` (what admission prices the backlog with — NOT the HTTP
// handler latency, which for async submits is microseconds) and
// `njobs` blocked jobs occupy the pool. Returns the gate releasing
// them.
func primeBacklog(t *testing.T, s *Server, kind string, mean time.Duration, njobs int) chan struct{} {
	t.Helper()
	s.pool.ObserveExec(kind, mean)
	gate := make(chan struct{})
	for i := 0; i < njobs; i++ {
		id := "sha256:block" + strconv.Itoa(i)
		if _, err := s.pool.Submit(id, func(ctx context.Context) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Wait for the workers to pick the first job up, so the
			// queue holds only the overflow and later submissions
			// cannot trip the queue bound prematurely.
			deadline := time.Now().Add(5 * time.Second)
			for s.pool.Stats().Running == 0 {
				if time.Now().After(deadline) {
					t.Fatal("first blocked job never started")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return gate
}

// TestAdmissionShedsDoomedRequests: with a deep backlog of slow work,
// a request with a short explicit deadline is shed with 429 +
// Retry-After instead of queued past its patience; a patient request
// is still admitted.
func TestAdmissionShedsDoomedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	gate := primeBacklog(t, s, "predict", 2*time.Second, 4)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()

	req, err := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "100ms") // est wait ≈ 10s (4×2s backlog + 2s own) ≫ 100ms
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("impatient request: %d %s, want 429", resp.StatusCode, body)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Class != "queue_full" {
		t.Fatalf("shed body %s", body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("shed Retry-After %q, want ≥1 whole seconds", ra)
	}

	// /metricsz counts the shed.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz Metricsz
	if err := json.Unmarshal(readBody(t, mresp), &mz); err != nil {
		t.Fatal(err)
	}
	if mz.Admission.Shed < 1 {
		t.Fatalf("admission stats %+v after shed", mz.Admission)
	}

	// A patient caller gets through: admitted, queued behind the
	// backlog, answered once the gate opens.
	done := make(chan *http.Response, 1)
	go func() {
		r2, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
		r2.Header.Set("Content-Type", "application/json")
		r2.Header.Set(wire.DeadlineHeader, "1h")
		resp2, err := http.DefaultClient.Do(r2)
		if err == nil {
			done <- resp2
		}
	}()
	time.Sleep(50 * time.Millisecond) // let it enqueue before releasing
	close(gate)
	released = true
	select {
	case resp2 := <-done:
		if b := readBody(t, resp2); resp2.StatusCode != 200 {
			t.Fatalf("patient request: %d %s", resp2.StatusCode, b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("patient request never completed")
	}
}

// TestQueueFullCarriesRetryAfter: the 429 a saturated queue returns
// derives its Retry-After from the backlog.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	gate := primeBacklog(t, s, "simulate", time.Second, 3) // 1 running + 2 queued = full
	defer close(gate)

	body := `{"topo":{"kind":"star","n":3},"v":4,"msg_len":8,"rate":0.001}`
	resp := postJSON(t, ts.URL+"/v1/simulate", body)
	rb := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %s, want 429", resp.StatusCode, rb)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(rb, &eb); err != nil || eb.Error.Class != "queue_full" {
		t.Fatalf("queue-full body %s", rb)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("queue-full Retry-After %q", resp.Header.Get("Retry-After"))
	}
}

// TestConcurrencyCapCarriesRetryAfter: the cap's 503 carries a
// derived Retry-After too (satellite of the same contract: every
// 429/503 tells the client when to come back).
func TestConcurrencyCapCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInFlight: 1})
	// Occupy the single slot with a request that blocks in the pool.
	gate := primeBacklog(t, s, "block", time.Second, 1)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			readBody(t, resp)
		}
	}()
	// Wait for the predict to hold the slot — queued in the pool behind
	// the blocked job — then probe: 503 + Retry-After. A probe sent
	// earlier could take the slot first and 503 the predict instead.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("predict never queued")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, resp)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Fatalf("cap 503 Retry-After %q", resp.Header.Get("Retry-After"))
			}
			var eb wire.ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Class != "queue_full" {
				t.Fatalf("cap body %s", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("concurrency cap never hit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	released = true
	<-blocked
}

// TestAdmissionPricesBoundsRunTime: on an idle pool the estimate is
// the kind's own expected run time, so a bounds request whose observed
// mean exceeds its deadline is shed. Cheap predicts pull the all-kinds
// mean (~200ms) under the deadline, so pricing bounds at anything but
// its own mean would admit it.
func TestAdmissionPricesBoundsRunTime(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.pool.ObserveExec("bounds", 2*time.Second)
	for i := 0; i < 9; i++ {
		s.pool.ObserveExec("predict", time.Millisecond)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/bounds", strings.NewReader(boundsS4))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "500ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bounds past its deadline: %d %s, want 429", resp.StatusCode, body)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Class != "queue_full" {
		t.Fatalf("shed body %s", body)
	}
}

// TestBatchOfOneShedsLikeStandalone: a standalone async submit and a
// one-item batch are the same admission run, so they shed at the same
// deadline whatever the worker count. With four workers and a
// simulate mean of 2s, a 1s deadline sheds both; pricing the batch
// item at mean/Workers (0.5s) would admit it.
func TestBatchOfOneShedsLikeStandalone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	s.pool.ObserveExec("simulate", 2*time.Second)
	post := func(path, body string) (int, []byte) {
		req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(wire.DeadlineHeader, "1s")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}

	code, body := post("/v1/simulate", recoverySim)
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || code != http.StatusTooManyRequests || eb.Error.Class != "queue_full" {
		t.Fatalf("standalone submit: %d %s, want 429 queue_full", code, body)
	}

	code, body = post("/v1/jobs:batch", batchBody(t, `{"kind":"simulate","config":`+recoverySim+`}`))
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil || code != http.StatusOK || len(br.Items) != 1 {
		t.Fatalf("batch: %d %s", code, body)
	}
	shed := br.Items[0].Error
	if shed == nil || shed.Class != "queue_full" {
		t.Fatalf("one-item batch %+v, want queue_full like its standalone submit", br.Items[0])
	}
	if shed.RetryAfterMS != eb.Error.RetryAfterMS {
		t.Fatalf("retry hints differ: batch %dms, standalone %dms", shed.RetryAfterMS, eb.Error.RetryAfterMS)
	}
	if got := s.shed.Load(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}
}
