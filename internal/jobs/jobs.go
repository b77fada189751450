// Package jobs is the deterministic job engine behind the serving
// layer (internal/server, cmd/starperfd) and the experiment sweeps
// (internal/experiments): content-addressed job identity plus a
// bounded worker pool.
//
// Identity. CanonicalJSON serialises any JSON-encodable value into a
// canonical form — object keys sorted, numbers kept verbatim — so the
// same logical request always produces the same bytes regardless of
// field order or encoding round-trips, and Hash condenses that form
// into a versioned "sha256:..." content hash. The hash is the job id,
// the singleflight key and the cache key (internal/cache), which is
// what makes "a cache hit is byte-identical to a recompute" a checkable
// guarantee rather than a convention.
//
// Execution. Pool runs submitted Funcs on a fixed set of workers with
// a bounded intake queue (excess submissions fail fast with the typed
// ErrQueueFull instead of piling up), a per-job context carrying the
// configured timeout, and singleflight deduplication: concurrent
// submissions of the same id attach to the one in-flight Job rather
// than recomputing. Finished jobs stay pollable (Pool.Get) until the
// retention bound evicts them.
//
// Intake. Every entry point (SubmitMeta, SubmitBatch, DoMeta) goes
// through one write-ahead path, a single submit being a batch of one:
// reserve queue slots under the pool lock, make the accepted records
// durable in one journal group commit outside it, then publish to the
// workers or roll every reservation back.
//
// The engine itself stays deterministic — no wall-clock reads, no
// randomness; job ids are pure functions of their requests — so a pool
// of N workers produces byte-identical results to a serial run, a
// property the experiment harness pins in its tests.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrNotFinished classifies Result calls on a job that is still
// queued or running: synchronise with Wait or Done first.
var ErrNotFinished = errors.New("jobs: job not finished")

// Status is the lifecycle state of a Job.
type Status string

// The job lifecycle: queued → running → done | failed.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Func is the unit of work a Pool executes. The context carries the
// pool's per-job timeout and is cancelled on forced shutdown; compute
// kernels that cannot observe it (the simulator is cycle-bounded by
// construction) may ignore it.
type Func func(ctx context.Context) (any, error)

// Job is one submitted computation, shared by every caller that
// submitted the same id while it was in flight.
type Job struct {
	id   string
	kind string // Meta.Kind, for per-kind execution accounting
	fn   Func

	mu     sync.Mutex
	status Status
	result any
	err    error
	done   chan struct{}
}

// ID returns the job's content-hash id.
func (j *Job) ID() string { return j.id }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job finishes (done or
// failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's outcome. Calling it before the job has
// finished is an error; use Wait or Done to synchronise.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.result, nil
	case StatusFailed:
		return nil, j.err
	default:
		return nil, fmt.Errorf("%w: job %s (%s)", ErrNotFinished, j.id, j.status)
	}
}

// Wait blocks until the job finishes or ctx is done, returning the
// job's outcome or the context's error. A context expiry abandons the
// wait, not the job: the computation keeps running and stays pollable.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// setRunning advances queued → running (idempotent).
func (j *Job) setRunning() {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusRunning
	}
	j.mu.Unlock()
}

// complete records the outcome and releases every waiter.
func (j *Job) complete(result any, err error) {
	j.mu.Lock()
	j.result, j.err = result, err
	if err != nil {
		j.status = StatusFailed
	} else {
		j.status = StatusDone
	}
	j.mu.Unlock()
	close(j.done)
}
