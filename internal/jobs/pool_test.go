package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsJobs: submitted jobs complete with their results and
// the counters add up.
func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4, QueueDepth: 64})
	defer p.Shutdown(context.Background())
	var handles []*Job
	for i := 0; i < 20; i++ {
		i := i
		j, err := p.Submit(fmt.Sprintf("job/%d", i), func(ctx context.Context) (any, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, j)
	}
	for i, j := range handles {
		v, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if v.(int) != i*i {
			t.Fatalf("job %d returned %v, want %d", i, v, i*i)
		}
		if j.Status() != StatusDone {
			t.Fatalf("job %d status %s, want done", i, j.Status())
		}
	}
	st := p.Stats()
	if st.Submitted != 20 || st.Completed != 20 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 20 submitted/completed", st)
	}
}

// TestPoolBackpressure: with workers parked, submissions past
// QueueDepth fail with the typed queue-full error and are counted.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 2})
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	park := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	// One job occupies the worker...
	if _, err := p.Submit("park/0", park); err != nil {
		t.Fatal(err)
	}
	// Bounded poll (~2s) instead of a wall-clock deadline, keeping the
	// package inside the seedrand lint scope.
	for tries := 0; p.Stats().Running == 0; tries++ {
		if tries > 2000 {
			t.Fatal("worker never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and two more fill the queue to its bound.
	for i := 1; i < 3; i++ {
		if _, err := p.Submit(fmt.Sprintf("park/%d", i), park); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Submit("park/overflow", park)
	var qf *QueueFullError
	if !errors.As(err, &qf) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want QueueFullError", err)
	}
	if qf.Depth != 2 {
		t.Fatalf("QueueFullError.Depth = %d, want 2", qf.Depth)
	}
	if st := p.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(block)
}

// TestPoolSingleflight: concurrent submissions of the same id share
// one computation, observed through the dedup counter and a single
// execution count.
func TestPoolSingleflight(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 16})
	defer p.Shutdown(context.Background())
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-release
		return "result", nil
	}
	const callers = 8
	jobsSeen := make([]*Job, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := p.Submit("shared", fn)
			if err != nil {
				t.Error(err)
				return
			}
			jobsSeen[i] = j
		}(i)
	}
	wg.Wait()
	close(release)
	for i, j := range jobsSeen {
		if j == nil {
			t.Fatalf("caller %d got no job", i)
		}
		if j != jobsSeen[0] {
			t.Fatalf("caller %d got a different job instance", i)
		}
	}
	if v, err := jobsSeen[0].Wait(context.Background()); err != nil || v != "result" {
		t.Fatalf("shared job: %v, %v", v, err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Deduped != callers-1 {
		t.Fatalf("stats = %+v, want 1 submitted / %d deduped", st, callers-1)
	}
}

// TestPoolResubmitAfterDone: a finished id is recomputable (the
// singleflight window covers in-flight jobs only).
func TestPoolResubmitAfterDone(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Shutdown(context.Background())
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) { return runs.Add(1), nil }
	for want := int64(1); want <= 2; want++ {
		j, err := p.Submit("again", fn)
		if err != nil {
			t.Fatal(err)
		}
		v, err := j.Wait(context.Background())
		if err != nil || v.(int64) != want {
			t.Fatalf("run %d: got %v, %v", want, v, err)
		}
	}
}

// TestPoolJobTimeout: a job past JobTimeout fails with
// context.DeadlineExceeded while the pool keeps serving.
func TestPoolJobTimeout(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer p.Shutdown(context.Background())
	release := make(chan struct{})
	defer close(release)
	slow, err := p.Submit("slow", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow job: got %v, want deadline exceeded", err)
	}
	if slow.Status() != StatusFailed {
		t.Fatalf("slow job status %s, want failed", slow.Status())
	}
	fast, err := p.Do(context.Background(), "fast", func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || fast.(int) != 42 {
		t.Fatalf("fast job after timeout: %v, %v", fast, err)
	}
}

// TestPoolPanicBecomesError: a panicking job fails its own Job
// without killing the worker.
func TestPoolPanicBecomesError(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	defer p.Shutdown(context.Background())
	_, err := p.Do(context.Background(), "boom", func(ctx context.Context) (any, error) {
		panic("kaboom")
	})
	if err == nil || err.Error() != "jobs: job panicked: kaboom" {
		t.Fatalf("panic job: got %v", err)
	}
	if v, err := p.Do(context.Background(), "ok", func(ctx context.Context) (any, error) {
		return "alive", nil
	}); err != nil || v != "alive" {
		t.Fatalf("pool dead after panic: %v, %v", v, err)
	}
	if st := p.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 failed / 1 completed", st)
	}
}

// TestPoolShutdownDrains: Shutdown completes queued work, then Submit
// refuses with ErrPoolClosed.
func TestPoolShutdownDrains(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 32})
	var done atomic.Int64
	var handles []*Job
	for i := 0; i < 10; i++ {
		j, err := p.Submit(fmt.Sprintf("drain/%d", i), func(ctx context.Context) (any, error) {
			done.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, j)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 10 {
		t.Fatalf("drained %d jobs, want 10", n)
	}
	for i, j := range handles {
		if j.Status() != StatusDone {
			t.Fatalf("job %d not done after drain: %s", i, j.Status())
		}
	}
	if _, err := p.Submit("late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-shutdown submit: got %v, want ErrPoolClosed", err)
	}
}

// TestPoolGetRetention: finished jobs stay pollable until retainDone
// pushes them out, oldest first.
func TestPoolGetRetention(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8})
	defer p.Shutdown(context.Background())
	for i := 0; i < retainDone+1; i++ {
		id := fmt.Sprintf("keep/%d", i)
		if _, err := p.Do(context.Background(), id, func(ctx context.Context) (any, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.Get("keep/0"); ok {
		t.Fatal("oldest finished job survived past retainDone")
	}
	for i := 1; i <= retainDone; i++ {
		id := fmt.Sprintf("keep/%d", i)
		j, ok := p.Get(id)
		if !ok || j.Status() != StatusDone {
			t.Fatalf("job %s not retained", id)
		}
	}
}

// TestSubmitValidation: empty ids and nil funcs are configuration
// errors.
func TestSubmitValidation(t *testing.T) {
	p := NewPool(PoolConfig{})
	defer p.Shutdown(context.Background())
	if _, err := p.Submit("", func(ctx context.Context) (any, error) { return nil, nil }); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := p.Submit("x", nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

// TestShutdownWaitsForAbandonedRun: a run abandoned by JobTimeout
// still counts as in flight for Shutdown, so nothing it writes can
// land after Shutdown returns.
func TestShutdownWaitsForAbandonedRun(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, JobTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	var finished atomic.Bool
	j, err := p.Submit("abandoned", func(ctx context.Context) (any, error) {
		<-release
		time.Sleep(20 * time.Millisecond)
		finished.Store(true)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job: got %v, want deadline exceeded", err)
	}

	// Bounded by its ctx: the run is still blocked, so Shutdown gives up.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with a blocked abandoned run: got %v, want deadline exceeded", err)
	}

	close(release)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Shutdown returned before the abandoned run finished")
	}
}
