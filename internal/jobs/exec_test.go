package jobs

// Per-kind execution-time accounting: the numbers admission control
// prices the backlog with. All timing flows through the injected
// clock, so the assertions are exact and deterministic — no wall
// clock, no sleeps.

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for PoolConfig.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestPoolExecAccounting: a finished job's execution time lands in
// its kind's mean, unknown kinds fall back to the all-kinds mean, and
// EstWaitMicros prices the live backlog per kind.
func TestPoolExecAccounting(t *testing.T) {
	clk := newFakeClock()
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8, Now: clk.now})
	defer p.Shutdown(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// One "sim" job that takes 2s of fake time.
	j, err := p.SubmitMeta("sha256:exec0", Meta{Kind: "sim"}, func(ctx context.Context) (any, error) {
		clk.advance(2 * time.Second)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.ExecMeanMicros("sim"); got != 2e6 {
		t.Fatalf("ExecMeanMicros(sim) = %v, want 2e6", got)
	}
	// A kind with no finished samples falls back to the overall mean.
	if got := p.ExecMeanMicros("unseen"); got != 2e6 {
		t.Fatalf("ExecMeanMicros(unseen) = %v, want fallback 2e6", got)
	}
	if st := p.Stats(); st.ExecMeanMicros != 2e6 {
		t.Fatalf("Stats().ExecMeanMicros = %v, want 2e6", st.ExecMeanMicros)
	}

	// Backlog: one blocked "sim" job and one blocked bare job. Each is
	// priced at 2s (the bare kind through the fallback), over 1 worker.
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := p.SubmitMeta("sha256:exec1", Meta{Kind: "sim"}, block); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitMeta("sha256:exec2", Meta{}, block); err != nil {
		t.Fatal(err)
	}
	if got := p.EstWaitMicros(); got != 4e6 {
		t.Fatalf("EstWaitMicros = %v, want 4e6 (2 jobs × 2s / 1 worker)", got)
	}
}

// TestObserveExecSeedsEstimates: ObserveExec warms the per-kind means
// without running a job, and an idle pool estimates zero wait.
func TestObserveExecSeedsEstimates(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2})
	defer p.Shutdown(context.Background())
	p.ObserveExec("sweep", 3*time.Second)
	if got := p.ExecMeanMicros("sweep"); got != 3e6 {
		t.Fatalf("seeded ExecMeanMicros = %v, want 3e6", got)
	}
	if got := p.EstWaitMicros(); got != 0 {
		t.Fatalf("EstWaitMicros = %v on an idle pool, want 0", got)
	}
}
