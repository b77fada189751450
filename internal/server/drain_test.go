package server

// Graceful-shutdown coverage (the drain path cmd/starperfd wires to
// SIGINT/SIGTERM): Close must wait for in-flight async jobs inside
// its budget, and must give up — returning the context error, with
// queued jobs failed fast — when the budget expires first.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"starperf/internal/cache"
	"starperf/internal/jobs"
)

// cacheCfg gives each manually-constructed server its own disk dir.
func cacheCfg(t *testing.T) cache.Config {
	t.Helper()
	return cache.Config{Dir: t.TempDir()}
}

// TestCloseDrainsInFlightJobs: jobs running and queued at Close time
// finish, Close returns nil, and their results are intact.
func TestCloseDrainsInFlightJobs(t *testing.T) {
	s, err := New(Config{Workers: 1, Cache: cacheCfg(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	var jobs4 []string
	for i := 0; i < 3; i++ {
		id := "sha256:drain" + string(rune('a'+i))
		jobs4 = append(jobs4, id)
		if _, err := s.Pool().SubmitMeta(id, jobs.Meta{}, func(ctx context.Context) (any, error) {
			<-release
			return "drained", nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	// Close stops intake immediately but keeps draining.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with jobs still blocked", err)
	default:
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("drained Close returned %v", err)
	}
	for _, id := range jobs4 {
		j, ok := s.Pool().Get(id)
		if !ok {
			t.Fatalf("job %s gone after drain", id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		v, err := j.Wait(ctx)
		cancel()
		if err != nil || v != "drained" {
			t.Fatalf("job %s after drain: %v, %v", id, v, err)
		}
	}
}

// TestCloseTimesOutOnStuckJobs: when the drain budget expires with a
// job still running, Close returns the context error and the queued
// jobs fail fast with it rather than hanging forever.
func TestCloseTimesOutOnStuckJobs(t *testing.T) {
	s, err := New(Config{Workers: 1, Cache: cacheCfg(t)})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release) // unstick the leaked worker at test end
	if _, err := s.Pool().SubmitMeta("sha256:stuck", jobs.Meta{}, func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pool().SubmitMeta("sha256:queued-behind", jobs.Meta{}, func(ctx context.Context) (any, error) {
		return "never", nil
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Close on stuck job returned %v, want DeadlineExceeded", err)
	}
	// The queued job must fail fast once the pool context is
	// cancelled, not wait behind the stuck one forever.
	j, ok := s.Pool().Get("sha256:queued-behind")
	if !ok {
		t.Fatal("queued job missing")
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if _, err := j.Wait(wctx); err == nil {
		t.Fatal("job queued behind a stuck one reported success after forced shutdown")
	}
}
