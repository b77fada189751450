package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starperf/internal/netx"
)

// newRecordingClient builds a seeded client whose sleeps are recorded
// instead of slept, so retry tests run instantly and deterministically.
func newRecordingClient(t *testing.T, url string, cfg Config) (*Client, *[]time.Duration) {
	t.Helper()
	cfg.BaseURL = url
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return ctx.Err()
	}
	return c, &sleeps
}

func TestRetriesHonourRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"class":"queue_full","message":"overloaded","retry_after_ms":7000}}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c, sleeps := newRecordingClient(t, ts.URL, Config{})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	// Both backoffs must follow the server's schedule exactly.
	if len(*sleeps) != 2 || (*sleeps)[0] != 7*time.Second || (*sleeps)[1] != 7*time.Second {
		t.Fatalf("sleeps = %v, want [7s 7s]", *sleeps)
	}
}

func TestFullJitterBackoffBounds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout) // no Retry-After
		fmt.Fprint(w, `{"error":{"class":"timeout","message":"timeout"}}`)
	}))
	defer ts.Close()

	base := 100 * time.Millisecond
	c, sleeps := newRecordingClient(t, ts.URL, Config{MaxAttempts: 4, BaseBackoff: base, MaxBackoff: time.Minute})
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("succeeded against an always-504 server")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("error %v does not unwrap to the 504", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts", calls.Load())
	}
	// Full jitter: each sleep is uniform in [0, base·2^(n-1)].
	for i, d := range *sleeps {
		if max := base << uint(i); d < 0 || d > max {
			t.Fatalf("sleep %d = %v outside [0, %v]", i, d, max)
		}
	}
}

func TestSameSeedSameBackoffSchedule(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"class":"queue_full","message":"x"}}`)
	}))
	defer ts.Close()
	run := func() []time.Duration {
		c, sleeps := newRecordingClient(t, ts.URL, Config{Seed: 99, MaxAttempts: 5})
		_ = c.Health(context.Background())
		return *sleeps
	}
	a, b := run(), run()
	if len(a) != 4 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"class":"invalid_config","message":"bad topo"}}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	_, err := c.Predict(context.Background(), PredictRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Class != "invalid_config" {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("a 400 was retried: %d attempts", calls.Load())
	}
}

func TestNetworkErrorsRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	// A transport that fails twice before delegating to the real one.
	var fails atomic.Int64
	c.http = &http.Client{Transport: netx.RoundTripFunc(func(r *http.Request) (*http.Response, error) {
		if fails.Add(1) <= 2 {
			return nil, errors.New("connection reset by peer")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health through flaky transport: %v", err)
	}
	if calls.Load() != 1 || fails.Load() != 3 {
		t.Fatalf("server calls %d / transport tries %d, want 1 / 3", calls.Load(), fails.Load())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"class":"queue_full","message":"x","retry_after_ms":30000}}`)
	}))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Health(ctx) // real sleeps: the 30s Retry-After must lose to ctx
	if err == nil {
		t.Fatal("succeeded against an always-503 server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored the context for %v", elapsed)
	}
}

func TestDeadlineHeaderPropagates(t *testing.T) {
	var sawDeadline atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get("X-Starperf-Deadline"); h != "" {
			if d, err := time.ParseDuration(h); err == nil && d > 0 {
				sawDeadline.Store(true)
			}
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Fatal("client did not announce its deadline to the server")
	}
}

func TestJobPolling(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"sha256:abc","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) < 3 {
			fmt.Fprint(w, `{"id":"sha256:abc","status":"running"}`)
			return
		}
		fmt.Fprint(w, `{"id":"sha256:abc","status":"done","result":{"mean_latency":12.5}}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, sleeps := newRecordingClient(t, ts.URL, Config{})
	res, err := c.Simulate(context.Background(), SimulateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency != 12.5 {
		t.Fatalf("result = %+v", res)
	}
	if polls.Load() != 3 {
		t.Fatalf("polls = %d, want 3", polls.Load())
	}
	// One PollInterval before each poll, the first included.
	if want := []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond}; fmt.Sprint(*sleeps) != fmt.Sprint(want) {
		t.Fatalf("sleeps = %v, want %v", *sleeps, want)
	}
}

// TestUndecodablePollIsProtocolError: a 200 poll whose body is not a
// job envelope breaks the API contract, so both poll entry points
// classify it as ErrProtocol.
func TestUndecodablePollIsProtocolError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"sha256:abc","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html>not a job</html>`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	if err := c.WaitBatch(context.Background(), []string{"sha256:abc"})[0].Err; !errors.Is(err, ErrProtocol) {
		t.Fatalf("WaitBatch err = %v, want ErrProtocol", err)
	}
	if _, err := c.Simulate(context.Background(), SimulateRequest{}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Simulate err = %v, want ErrProtocol", err)
	}
}

func TestJobFailureSurfaces(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"sha256:def","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"sha256:def","status":"failed","error":"panel exploded"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, _ := newRecordingClient(t, ts.URL, Config{})
	_, err := c.Sweep(context.Background(), SweepRequest{Panel: "a"})
	if err == nil {
		t.Fatal("failed job did not surface an error")
	}
	if !strings.Contains(err.Error(), "panel exploded") {
		t.Fatalf("err %q does not carry the job's failure", err)
	}
}

func TestNewRequiresBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty BaseURL")
	}
}
