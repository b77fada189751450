package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"starperf/internal/wire"
)

func TestSubmitBatchMixedOutcomes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs:batch" {
			t.Errorf("path = %s, want /v1/jobs:batch", r.URL.Path)
		}
		var req wire.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("request body: %v", err)
		}
		if len(req.Items) != 3 {
			t.Errorf("items = %d, want 3", len(req.Items))
		}
		fmt.Fprint(w, `{"items":[
			{"id":"sha256:aa","status":"queued"},
			{"error":{"class":"invalid_config","message":"bad rate"}},
			{"error":{"class":"queue_full","message":"shed","retry_after_ms":1500}}
		]}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	out, err := c.SubmitBatch(context.Background(), []BatchItem{
		{Kind: "predict", Config: PredictRequest{Topo: TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.001}},
		{Kind: "predict", Config: map[string]any{"rate": -1}},
		{Kind: "simulate", Config: SimulateRequest{Topo: TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.001}},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if out[0].Err != nil || out[0].ID != "sha256:aa" || out[0].Status != "queued" {
		t.Fatalf("item 0 = %+v, want accepted sha256:aa", out[0])
	}
	if !errors.Is(out[1].Err, ErrConfig) {
		t.Fatalf("item 1 err = %v, want ErrConfig via invalid_config", out[1].Err)
	}
	var apiErr *APIError
	if !errors.As(out[2].Err, &apiErr) || !apiErr.Temporary() {
		t.Fatalf("item 2 err = %v, want temporary *APIError", out[2].Err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("item 2 status = %d, want 429", apiErr.Status)
	}
	if got := apiErr.RetryAfter(); got != 1500*time.Millisecond {
		t.Fatalf("item 2 retry-after = %v, want 1.5s", got)
	}
}

// TestSubmitBatchReadOnlyItemIsTemporary: an item the server refuses
// read_only (its pool-level backstop, 503 on a standalone submit) is
// retryable like the standalone refusal, with the server's hint.
func TestSubmitBatchReadOnlyItemIsTemporary(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"items":[{"error":{"class":"read_only","message":"journal read-only","retry_after_ms":1000}}]}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	out, err := c.SubmitBatch(context.Background(), []BatchItem{
		{Kind: "predict", Config: PredictRequest{Topo: TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.001}},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	var apiErr *APIError
	if !errors.As(out[0].Err, &apiErr) || !apiErr.Temporary() {
		t.Fatalf("item err = %v, want temporary *APIError", out[0].Err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Class != wire.ClassReadOnly {
		t.Fatalf("item status %d class %q, want 503 %q", apiErr.Status, apiErr.Class, wire.ClassReadOnly)
	}
	if got := apiErr.RetryAfter(); got != time.Second {
		t.Fatalf("item retry-after = %v, want 1s", got)
	}
}

func TestSubmitBatchChunksPastServerLimit(t *testing.T) {
	var calls atomic.Int64
	var sizes []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var req wire.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("request body: %v", err)
		}
		sizes = append(sizes, len(req.Items))
		resp := wire.BatchResponse{Items: make([]wire.BatchItemResult, len(req.Items))}
		for i := range resp.Items {
			resp.Items[i] = wire.BatchItemResult{ID: fmt.Sprintf("sha256:%02x", i), Status: "queued"}
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	items := make([]BatchItem, wire.MaxBatchItems+10)
	for i := range items {
		items[i] = BatchItem{Kind: "predict", Config: PredictRequest{Topo: TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.001}}
	}
	out, err := c.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("HTTP calls = %d, want 2 chunks", calls.Load())
	}
	if sizes[0] != wire.MaxBatchItems || sizes[1] != 10 {
		t.Fatalf("chunk sizes = %v, want [%d 10]", sizes, wire.MaxBatchItems)
	}
	for i, st := range out {
		if st.Err != nil || st.ID == "" {
			t.Fatalf("item %d = %+v, want accepted", i, st)
		}
	}
}

func TestSubmitBatchCountMismatchIsProtocolError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"items":[{"id":"sha256:aa","status":"queued"}]}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	_, err := c.SubmitBatch(context.Background(), []BatchItem{
		{Kind: "predict", Config: map[string]any{}},
		{Kind: "predict", Config: map[string]any{}},
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol on 1 answer for 2 items", err)
	}
}

func TestWaitBatchPollsSharedSchedule(t *testing.T) {
	// Job a completes on the second poll round, job b on the first;
	// job c fails. One PollInterval sleep separates the rounds.
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		round := polls.Add(1)
		switch id := r.PathValue("id"); id {
		case "sha256:aa":
			if round <= 3 {
				fmt.Fprintf(w, `{"id":%q,"status":"running"}`, id)
			} else {
				fmt.Fprintf(w, `{"id":%q,"status":"done","result":{"n":1}}`, id)
			}
		case "sha256:bb":
			fmt.Fprintf(w, `{"id":%q,"status":"done","result":{"n":2}}`, id)
		case "sha256:cc":
			fmt.Fprintf(w, `{"id":%q,"status":"failed","error":"boom"}`, id)
		default:
			t.Errorf("unexpected poll for %s", id)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, sleeps := newRecordingClient(t, ts.URL, Config{PollInterval: 25 * time.Millisecond})
	out := c.WaitBatch(context.Background(), []string{"sha256:aa", "sha256:bb", "sha256:cc"})
	if string(out[1].Result) != `{"n":2}` {
		t.Fatalf("job b result = %s, want {\"n\":2}", out[1].Result)
	}
	if string(out[0].Result) != `{"n":1}` {
		t.Fatalf("job a result = %s, want {\"n\":1}", out[0].Result)
	}
	if !errors.Is(out[2].Err, ErrJobFailed) {
		t.Fatalf("job c err = %v, want ErrJobFailed", out[2].Err)
	}
	// Round 1 polls all three (b done, c failed), round 2 polls a
	// alone: exactly one inter-round sleep at PollInterval.
	if len(*sleeps) != 1 || (*sleeps)[0] != 25*time.Millisecond {
		t.Fatalf("sleeps = %v, want one 25ms inter-round sleep", *sleeps)
	}
}

func TestWaitBatchContextExpiry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"sha256:aa","status":"running"}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := c.WaitBatch(ctx, []string{"sha256:aa", ""})
	if !errors.Is(out[0].Err, context.Canceled) {
		t.Fatalf("pending job err = %v, want context.Canceled", out[0].Err)
	}
	if !errors.Is(out[1].Err, ErrConfig) {
		t.Fatalf("empty id err = %v, want ErrConfig", out[1].Err)
	}
}
