package server

// Regression tests for the guard's layering: the breaker's half-open
// probe slot is a one-token resource that only observe releases, so
// nothing between breakers.allow and the handler may bail out — and
// a panicking handler must still report its outcome.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starperf/internal/wire"
)

// tripRoute drives route's breaker open through observed failures.
func tripRoute(b *breakerSet, route string, n int) {
	for i := 0; i < n; i++ {
		b.observe(route, true)
	}
}

// TestShedDoesNotConsumeHalfOpenProbe: with the breaker open and its
// cooldown elapsed, a request shed by admission control must NOT
// consume the half-open probe slot — this is the realistic worst
// case (the backlog that tripped the breaker is still there at
// half-open time), and a leaked probe would pin the route at 503
// until restart. Once the backlog drains, a patient request must be
// admitted as the probe and close the breaker.
func TestShedDoesNotConsumeHalfOpenProbe(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	clk := newFakeClock()
	s.breakers = withClock(newBreakerSet(BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, Cooldown: time.Second}), clk)
	tripRoute(s.breakers, "/v1/predict", 2)
	clk.advance(2 * time.Second) // cooldown over: the next admitted request is THE probe

	gate := primeBacklog(t, s, "predict", 2*time.Second, 2)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()

	// Impatient request: shed with 429 by admission control, before
	// the breaker is consulted.
	req, err := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.DeadlineHeader, "100ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("impatient request: %d %s, want 429 shed", resp.StatusCode, body)
	}

	// Drain the backlog, then a patient request must get the probe
	// slot the shed request left untouched — and its success closes
	// the breaker.
	close(gate)
	released = true
	for tries := 0; ; tries++ {
		st := s.pool.Stats()
		if st.Queued+st.Running == 0 {
			break
		}
		if tries > 5000 {
			t.Fatal("backlog never drained")
		}
		time.Sleep(time.Millisecond)
	}
	req2, err := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(wire.DeadlineHeader, "1h")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp2); resp2.StatusCode != http.StatusOK {
		t.Fatalf("probe request: %d %s, want 200 (probe slot leaked?)", resp2.StatusCode, body)
	}
	if st := s.breakers.report(); len(st) != 1 || st[0].State != breakerClosed {
		t.Fatalf("breaker state after healthy probe: %+v, want closed", st)
	}
}

// TestPanickingProbeReleasesSlot: a handler panic is observed as a
// failure (via the guard's deferred observe), so a panicking
// half-open probe re-opens the breaker instead of leaking the probe
// slot, and the next cooldown admits a fresh probe.
func TestPanickingProbeReleasesSlot(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	clk := newFakeClock()
	s.breakers = withClock(newBreakerSet(BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, Cooldown: time.Second}), clk)

	x := &jobKind{name: "x", route: "/x"}
	boom := s.guard(x, func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	calm := s.guard(x, func(w http.ResponseWriter, r *http.Request) {})
	call := func(h http.HandlerFunc) (panicked bool) {
		defer func() {
			panicked = recover() != nil
		}()
		h(httptest.NewRecorder(), httptest.NewRequest("POST", "/x", nil))
		return false
	}

	// Two panics are two observed failures: the breaker trips.
	if !call(boom) || !call(boom) {
		t.Fatal("handler did not panic")
	}
	if st := s.breakers.report(); len(st) != 1 || st[0].State != breakerOpen || st[0].Trips != 1 {
		t.Fatalf("breaker after two panics: %+v, want open after 1 trip", st)
	}

	// The half-open probe panics: the slot must be released by
	// re-opening, not leaked in the probing state.
	clk.advance(2 * time.Second)
	if !call(boom) {
		t.Fatal("probe handler did not panic")
	}
	if st := s.breakers.report(); st[0].State != breakerOpen || st[0].Trips != 2 {
		t.Fatalf("breaker after panicking probe: %+v, want re-opened (2 trips)", st)
	}

	// Next cooldown: a healthy probe still gets through and closes it.
	clk.advance(2 * time.Second)
	if call(calm) {
		t.Fatal("calm handler panicked")
	}
	if st := s.breakers.report(); st[0].State != breakerClosed {
		t.Fatalf("breaker after healthy probe: %+v, want closed", st)
	}
}
