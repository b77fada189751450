package client

// Decoding tests for the v1 error envelope: non-2xx bodies become
// *APIError, invalid_config maps onto the ErrConfig sentinel, and
// retry_after_ms seeds the retry schedule when the Retry-After header
// is absent.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDecodeV1Envelope: the nested shape carries class, message and
// the millisecond retry hint.
func TestDecodeV1Envelope(t *testing.T) {
	e := decodeAPIError(429, []byte(`{"error":{"class":"queue_full","message":"try later","retry_after_ms":1500}}`))
	if e.Class != "queue_full" || e.Message != "try later" {
		t.Fatalf("decoded %+v", e)
	}
	if e.retryAfter != 1500*time.Millisecond {
		t.Fatalf("retryAfter %v, want 1.5s", e.retryAfter)
	}
	if !e.Temporary() {
		t.Fatal("429 queue_full not temporary")
	}
}

// TestDecodeLegacyEnvelope: the pre-v1 flat shape is no longer
// decoded, but such a body still yields an *APIError that keeps its
// status (so retry decisions are unchanged), with class unknown.
func TestDecodeLegacyEnvelope(t *testing.T) {
	e := decodeAPIError(400, []byte(`{"error":"bad topo","class":"invalid_config"}`))
	if e.Status != 400 || e.Class != "unknown" {
		t.Fatalf("decoded %+v", e)
	}
}

// TestDecodeGarbageBody: a non-JSON body from an intermediary still
// produces a usable APIError.
func TestDecodeGarbageBody(t *testing.T) {
	e := decodeAPIError(502, []byte("<html>bad gateway</html>"))
	if e.Class != "unknown" || e.Status != 502 {
		t.Fatalf("decoded %+v", e)
	}
}

// TestInvalidConfigMatchesErrConfig: a server-side invalid_config
// rejection satisfies errors.Is(err, ErrConfig) — callers classify a
// bad request identically whether the client or the server caught it.
func TestInvalidConfigMatchesErrConfig(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"class":"invalid_config","message":"bad topology"}}`)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Predict(context.Background(), PredictRequest{})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("server invalid_config does not match ErrConfig: %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("want *APIError with status 400, got %v", err)
	}
	// Other classes must NOT match ErrConfig.
	other := &APIError{Status: 429, Class: "queue_full"}
	if errors.Is(other, ErrConfig) {
		t.Fatal("queue_full matched ErrConfig")
	}
}

// TestRetryAfterBodyFallback: with no Retry-After header, the
// envelope's retry_after_ms drives the backoff schedule.
func TestRetryAfterBodyFallback(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"class":"queue_full","message":"busy","retry_after_ms":1}}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retry: %v", err)
	}
	if calls != 2 {
		t.Fatalf("%d calls, want 2", calls)
	}
}
