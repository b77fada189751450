package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"starperf/internal/cfgerr"
	"starperf/internal/journal"
	"starperf/internal/obs"
)

// ErrQueueFull is the sentinel matched (via errors.Is) by the typed
// *QueueFullError a saturated intake queue returns: the pool is
// applying backpressure and the caller should shed or retry later.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrPoolClosed is returned by a submit after Shutdown began.
var ErrPoolClosed = errors.New("jobs: pool closed")

// ErrReadOnly is returned by SubmitMeta/SubmitBatch while the pool's
// journal is in read-only degradation (the disk filled up): the pool
// cannot durably acknowledge new async work, so it refuses it rather
// than hand out acceptance promises a crash would break. Synchronous
// work (DoMeta) is unaffected — it acknowledges nothing it has not
// already computed. The mode clears when journal space returns (a
// probe or any durable commit proves it).
var ErrReadOnly = errors.New("jobs: journal read-only (disk full)")

// QueueFullError reports a rejected submission with the queue bound
// that rejected it. errors.Is(err, ErrQueueFull) matches it.
type QueueFullError struct {
	// Depth is the configured queue bound that was full.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobs: queue full (depth %d)", e.Depth)
}

// Is reports the ErrQueueFull identity for errors.Is.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// retainDone bounds how many finished jobs stay pollable through Get
// before the oldest are forgotten. Results meant to outlive the
// registry belong in the content-addressed cache, which is keyed by
// the same id.
const retainDone = 1024

// PoolConfig sizes a Pool. The zero value is usable: one worker, the
// default queue depth, no per-job timeout.
type PoolConfig struct {
	// Workers is the number of concurrent executors (default 1).
	Workers int
	// QueueDepth bounds the jobs accepted but not yet running; a
	// submission past the bound fails with *QueueFullError
	// (default 64).
	QueueDepth int
	// JobTimeout, when positive, bounds each job's wall-clock run: the
	// per-job context expires and the job is marked failed with
	// context.DeadlineExceeded. The computation goroutine is abandoned
	// to finish in the background (every simulator run is
	// cycle-bounded, so it terminates) and its result discarded —
	// the same wall-budget policy the experiment harness applies to
	// sweep points. Shutdown still waits for abandoned runs, within its
	// ctx, so none outlives the resources it writes to. Zero means no
	// timeout and no extra goroutine.
	JobTimeout time.Duration
	// Journal, when set, makes the pool crash-safe: every lifecycle
	// transition (accepted, started, done, failed) is appended to the
	// durable WAL before or as it happens, and Recover re-enqueues
	// what a crash interrupted. Append failures degrade durability,
	// not service — the journal counts them (AppendErrors) and the
	// pool keeps running.
	Journal *journal.Journal
	// Now is the clock behind per-kind execution-time accounting
	// (default time.Now). It exists as a seam: the job engine itself
	// never branches on it — results stay pure functions of their
	// requests — and tests inject a fake clock so timing assertions
	// are deterministic.
	Now func() time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// kindAgg accumulates one job kind's execution statistics: how many
// of its jobs are in the pool right now and how long finished ones
// actually took to run. Admission control prices the backlog from
// these — the HTTP handler latency of an async submit (microseconds
// to return 202) says nothing about how long the job it enqueued
// will occupy a worker.
type kindAgg struct {
	inflight  int     // queued or running jobs of this kind
	finished  uint64  // jobs of this kind that have completed (either outcome)
	sumMicros float64 // total execution time of those finished jobs
}

// Pool is a bounded worker pool with singleflight deduplication: jobs
// are identified by content hash (see Hash) and concurrent
// submissions of the same id share one computation. Pools are safe
// for concurrent use.
type Pool struct {
	cfg PoolConfig

	mu        sync.Mutex
	queue     chan *Job
	inflight  map[string]*Job // queued or running, by id
	jobs      map[string]*Job // pollable registry, by id
	doneOrder []*Job          // finished jobs, oldest first, for retention
	kinds     map[string]*kindAgg
	queued    int
	running   int
	submitted uint64
	deduped   uint64
	rejected  uint64
	completed uint64
	failed    uint64
	closed    bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewPool starts a pool with cfg's workers.
func NewPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
		kinds:    make(map[string]*kindAgg),
		baseCtx:  ctx,
		cancel:   cancel,
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Meta is the journalable identity of a submission: the operation
// name and the canonical request body, enough for a restart to
// rebuild the job from its accepted record. A zero Meta journals a
// bare accepted record that Recover will skip.
type Meta struct {
	Kind string
	Req  []byte
}

// SubmitMeta enqueues fn under the given id and returns its Job. If a
// job with the same id is already queued or running, that job is
// returned instead of enqueuing a duplicate (singleflight);
// resubmitting a finished id starts a fresh computation. A full queue
// returns *QueueFullError; a shut-down pool returns ErrPoolClosed.
// When the pool has a journal, the accepted record — meta's kind and
// request body included — is fsynced before the job is enqueued, so a
// crash at any later point can replay it. It is a batch of one: see
// submit.
func (p *Pool) SubmitMeta(id string, meta Meta, fn Func) (*Job, error) {
	r := p.submit([]BatchItem{{ID: id, Meta: meta, Fn: fn}}, true)[0]
	return r.Job, r.Err
}

// BatchItem is one submission in a SubmitBatch call: the same
// (id, meta, fn) triple SubmitMeta takes, as data.
type BatchItem struct {
	ID   string
	Meta Meta
	Fn   Func
}

// BatchResult is one item's outcome: exactly what SubmitMeta would
// have returned for it.
type BatchResult struct {
	Job *Job
	Err error
}

// SubmitBatch enqueues every item with per-item outcomes — a bad,
// duplicate or shed item never blocks its neighbours — but the
// accepted subset pays for durability once: its accepted records go
// to the journal as ONE group commit (AppendBatch, one fsync).
// results[i] is exactly what SubmitMeta(items[i]...) would return; a
// duplicate id inside the batch dedupes onto the first occurrence's
// job like any other singleflight hit.
func (p *Pool) SubmitBatch(items []BatchItem) []BatchResult {
	return p.submit(items, true)
}

// submit is the pool's one write-ahead intake path; a single submit
// is a batch of one. It reserves slots under p.mu, journals the
// reserved items' accepted records in one AppendBatch outside it — an
// fsync held under the pool lock would stall every submission,
// completion, Get and Stats — and re-locks to publish the jobs to the
// workers or roll every reservation back. No worker can see a job
// before the publish step, so write-ahead ordering survives the split.
//
// durable marks submissions whose acknowledgement promises
// crash-replay: those are refused while the journal is read-only, and
// rolled back with ErrReadOnly when their accepted records hit ENOSPC.
// DoMeta passes false — it acknowledges nothing it has not computed,
// so a full disk degrades its durability, never its service.
func (p *Pool) submit(items []BatchItem, durable bool) []BatchResult {
	results := make([]BatchResult, len(items))
	readOnly := durable && p.ReadOnly()
	var reserved []int // indices that took a queue slot
	p.mu.Lock()
	for i, it := range items {
		switch j := p.inflight[it.ID]; {
		case it.ID == "":
			results[i].Err = cfgerr.New("jobs: empty job id")
		case it.Fn == nil:
			results[i].Err = cfgerr.New("jobs: nil job func")
		case readOnly:
			results[i].Err = ErrReadOnly
		case p.closed:
			results[i].Err = ErrPoolClosed
		case j != nil:
			p.deduped++
			results[i].Job = j
		case p.queued >= p.cfg.QueueDepth:
			p.rejected++
			results[i].Err = &QueueFullError{Depth: p.cfg.QueueDepth}
		default:
			j = &Job{id: it.ID, kind: it.Meta.Kind, fn: it.Fn, status: StatusQueued, done: make(chan struct{})}
			p.inflight[it.ID] = j
			p.jobs[it.ID] = j
			p.kind(it.Meta.Kind).inflight++
			p.queued++
			p.submitted++
			results[i].Job = j
			reserved = append(reserved, i)
		}
	}
	p.mu.Unlock()
	if len(reserved) == 0 {
		return results
	}

	var appendErr error
	if p.cfg.Journal != nil {
		// Write-ahead: accepted must be durable before any of these
		// jobs can start. Append failures are counted by the journal
		// itself — except ENOSPC on a durable submit, refused below.
		appendErr = p.appendEach(items, reserved, journal.Record{Type: journal.TypeAccepted})
	}

	p.mu.Lock()
	var refuse error
	switch {
	case durable && errors.Is(appendErr, syscall.ENOSPC):
		// The accepted records hit a full disk (the journal has flipped
		// read-only): none of these jobs was durably acknowledged, so a
		// crash right now loses nothing the caller was promised. This
		// wins over a racing Shutdown, and no failed record is written:
		// the disk that refused the accepts would refuse it too.
		refuse = ErrReadOnly
	case p.closed:
		// Shutdown began while the accepted records were being synced:
		// the queue channel is closed, so the jobs can never run.
		refuse = ErrPoolClosed
	default:
		for _, i := range reserved {
			p.queue <- results[i].Job // buffered to QueueDepth; the reservation keeps this non-blocking
		}
		p.mu.Unlock()
		return results
	}
	for _, i := range reserved {
		it := items[i]
		delete(p.inflight, it.ID)
		delete(p.jobs, it.ID)
		p.kind(it.Meta.Kind).inflight--
		p.queued--
		p.submitted--
	}
	p.mu.Unlock()
	if errors.Is(refuse, ErrPoolClosed) && p.cfg.Journal != nil {
		// Close the journal's books on the ids: the callers are told
		// ErrPoolClosed, so a later boot must not resurrect work nobody
		// was promised.
		_ = p.appendEach(items, reserved, journal.Record{Type: journal.TypeFailed, Err: ErrPoolClosed.Error()})
	}
	for _, i := range reserved {
		// A duplicate may have deduped onto the job during the append
		// window; failing it releases those callers' Waits too.
		results[i].Job.complete(nil, refuse)
		results[i] = BatchResult{Err: refuse}
	}
	return results
}

// appendEach appends one record per reserved item as a single group
// commit: rec stamped with the item's id, and for accepted records
// its kind and request body.
func (p *Pool) appendEach(items []BatchItem, reserved []int, rec journal.Record) error {
	recs := make([]journal.Record, len(reserved))
	for n, i := range reserved {
		r := rec
		r.ID = items[i].ID
		if r.Type == journal.TypeAccepted {
			r.Kind, r.Req = items[i].Meta.Kind, items[i].Meta.Req
		}
		recs[n] = r
	}
	return p.cfg.Journal.AppendBatch(recs)
}

// kind returns (creating if needed) the aggregate for one job kind.
// Callers hold p.mu.
func (p *Pool) kind(name string) *kindAgg {
	agg := p.kinds[name]
	if agg == nil {
		agg = &kindAgg{}
		p.kinds[name] = agg
	}
	return agg
}

// DoMeta submits fn under id and waits for the outcome — the
// synchronous entry point. The ctx bounds only this caller's wait;
// the job itself runs to completion (or its own timeout) regardless.
// Like SubmitMeta it journals meta, so even synchronous work replays
// after a crash. It keeps serving while the journal is read-only: the
// caller waits for the bytes, so nothing is acknowledged that a crash
// could lose — a full disk costs sync work its replay-ability, not
// its availability.
func (p *Pool) DoMeta(ctx context.Context, id string, meta Meta, fn Func) (any, error) {
	r := p.submit([]BatchItem{{ID: id, Meta: meta, Fn: fn}}, false)[0]
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Job.Wait(ctx)
}

// Get returns the job with the given id: in flight, or finished and
// still inside the retention window.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// ReadOnly reports the journal's read-only degradation: while true,
// SubmitMeta and SubmitBatch refuse with ErrReadOnly. A pool without
// a journal is never read-only.
func (p *Pool) ReadOnly() bool {
	return p.cfg.Journal != nil && p.cfg.Journal.ReadOnly()
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() obs.PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return obs.PoolStats{
		Workers:        p.cfg.Workers,
		QueueDepth:     p.cfg.QueueDepth,
		Queued:         p.queued,
		Running:        p.running,
		Submitted:      p.submitted,
		Deduped:        p.deduped,
		Rejected:       p.rejected,
		Completed:      p.completed,
		Failed:         p.failed,
		ExecMeanMicros: p.execMeanAllLocked(),
	}
}

// Shutdown stops intake and drains: queued and running jobs finish,
// then the workers exit, and so do runs abandoned by JobTimeout. If
// ctx expires first, the per-job contexts are cancelled — jobs not
// yet started fail fast with the context error, and Shutdown returns
// without waiting for in-flight computations to notice. A submit
// fails with ErrPoolClosed from the moment Shutdown is called.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		p.cancel()
		return nil
	case <-ctx.Done():
		p.cancel()
		return ctx.Err()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.mu.Lock()
		p.queued--
		p.running++
		p.mu.Unlock()
		j.setRunning()
		if p.cfg.Journal != nil {
			_ = p.cfg.Journal.Append(journal.Record{Type: journal.TypeStarted, ID: j.id})
		}
		start := p.cfg.Now()
		result, err := p.runOne(j)
		p.finish(j, result, err, p.cfg.Now().Sub(start))
	}
}

// runOne executes one job under the pool's per-job context policy,
// converting panics into errors so one bad request cannot take the
// worker down.
func (p *Pool) runOne(j *Job) (any, error) {
	ctx := p.baseCtx
	if err := ctx.Err(); err != nil {
		return nil, err // forced shutdown: fail queued jobs fast
	}
	if p.cfg.JobTimeout <= 0 {
		return runRecovered(ctx, j.fn)
	}
	ctx, cancel := context.WithTimeout(ctx, p.cfg.JobTimeout)
	defer cancel()
	type outcome struct {
		result any
		err    error
	}
	done := make(chan outcome, 1)
	fn := j.fn
	p.wg.Add(1) // the worker's own count is held, so Shutdown's Wait cannot have returned
	go func() {
		defer p.wg.Done()
		result, err := runRecovered(ctx, fn)
		done <- outcome{result, err}
	}()
	select {
	case oc := <-done:
		return oc.result, oc.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runRecovered invokes fn with panics converted to errors.
func runRecovered(ctx context.Context, fn Func) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// finish records the outcome, retires the job from the singleflight
// index and trims the retention window.
//
// The terminal record is appended before the job leaves the
// singleflight index, but NOT under p.mu — holding the pool lock
// across an fsync would stall every submission, poll and Stats call
// for milliseconds per completion. Per-id ordering still holds: a
// duplicate submit arriving during the append joins this finishing
// job (it is still in p.inflight) instead of minting a fresh
// accepted record, so no accepted(id) can be journaled ahead of this
// terminal one. And the append happens before j.complete wakes the
// waiters, so once a caller has seen the outcome no restart will
// re-run the job.
func (p *Pool) finish(j *Job, result any, err error, took time.Duration) {
	if p.cfg.Journal != nil {
		rec := journal.Record{Type: journal.TypeDone, ID: j.id}
		if err != nil {
			rec.Type, rec.Err = journal.TypeFailed, err.Error()
		}
		_ = p.cfg.Journal.Append(rec)
	}
	p.mu.Lock()
	p.running--
	j.fn = nil // a retained job must not pin what its run closed over
	if p.inflight[j.id] == j {
		delete(p.inflight, j.id)
	}
	if err != nil {
		p.failed++
	} else {
		p.completed++
	}
	p.observeExecLocked(j.kind, took)
	p.doneOrder = append(p.doneOrder, j)
	for len(p.doneOrder) > retainDone {
		old := p.doneOrder[0]
		p.doneOrder = p.doneOrder[1:]
		if p.jobs[old.id] == old {
			delete(p.jobs, old.id)
		}
	}
	p.mu.Unlock()
	j.complete(result, err)
}

// observeExecLocked folds one finished job's execution time into its
// kind's aggregate. Callers hold p.mu.
func (p *Pool) observeExecLocked(kind string, took time.Duration) {
	agg := p.kind(kind)
	if agg.inflight > 0 {
		agg.inflight--
	}
	agg.observe(took)
}

// observe folds one execution time into the aggregate's mean.
func (agg *kindAgg) observe(took time.Duration) {
	agg.finished++
	if us := took.Microseconds(); us > 0 {
		agg.sumMicros += float64(us)
	}
}

// ObserveExec records one job execution time for kind without running
// a job — a seed for the admission estimate, letting a deployment (or
// a test) warm the per-kind means before the first real completion.
// The pool feeds the same aggregates itself on every finish.
func (p *Pool) ObserveExec(kind string, took time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kind(kind).observe(took)
}

// ExecMeanMicros returns the observed mean execution time of kind's
// jobs in microseconds, falling back to the mean over all kinds when
// kind has no finished samples yet, and 0 when nothing has finished
// at all.
func (p *Pool) ExecMeanMicros(kind string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if agg, ok := p.kinds[kind]; ok && agg.finished > 0 {
		return agg.sumMicros / float64(agg.finished)
	}
	return p.execMeanAllLocked()
}

// kindNamesLocked returns the kind keys sorted, so the float sums
// below fold in a fixed order (range-over-map order is randomised,
// and float addition is not associative). Callers hold p.mu.
func (p *Pool) kindNamesLocked() []string {
	names := make([]string, 0, len(p.kinds))
	for name := range p.kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execMeanAllLocked is the mean execution time over every finished
// job, in microseconds. Callers hold p.mu.
func (p *Pool) execMeanAllLocked() float64 {
	var sum float64
	var n uint64
	for _, name := range p.kindNamesLocked() {
		agg := p.kinds[name]
		sum += agg.sumMicros
		n += agg.finished
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EstWaitMicros estimates how long the current backlog takes to
// drain: every queued or running job priced at its kind's observed
// mean execution time (the all-kinds mean when its own kind is still
// unobserved), spread over the workers. This is what admission
// control should shed on — job service time, not HTTP handler
// latency, which for an async submit measures only the microseconds
// it takes to return 202.
func (p *Pool) EstWaitMicros() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	fallback := p.execMeanAllLocked()
	var total float64
	for _, name := range p.kindNamesLocked() {
		agg := p.kinds[name]
		if agg.inflight == 0 {
			continue
		}
		mean := fallback
		if agg.finished > 0 {
			mean = agg.sumMicros / float64(agg.finished)
		}
		total += float64(agg.inflight) * mean
	}
	return total / float64(p.cfg.Workers)
}

// RecoverFunc rebuilds one journaled job for Recover. It returns the
// function to run, ok=false when the job no longer needs running
// (e.g. its result is already in the content-addressed cache), or an
// error when the record cannot be resurrected (unknown kind, payload
// that no longer parses).
type RecoverFunc func(id, kind string, req []byte) (fn Func, ok bool, err error)

// Recovery summarises one Recover pass.
type Recovery struct {
	// Requeued jobs were re-enqueued and will run again; Skipped ones
	// were already satisfied (journaled done); Failed ones could not
	// be rebuilt (journaled failed, so they stop replaying).
	Requeued, Skipped, Failed int
}

// Recover replays the journal's incomplete records through resolve,
// re-enqueueing every job a crash interrupted. Job ids are content
// hashes, so a replayed job recomputes into the same cache entry a
// finished first run would have produced — replay is idempotent.
// Call it once, after NewPool and before serving traffic.
func (p *Pool) Recover(entries []journal.Record, resolve RecoverFunc) Recovery {
	var rec Recovery
	for _, e := range entries {
		fn, ok, err := resolve(e.ID, e.Kind, e.Req)
		// A record that will not run again gets a terminal record, so
		// it stops replaying on every future boot.
		closing := journal.Record{Type: journal.TypeDone, ID: e.ID}
		switch {
		case err != nil:
			closing.Type, closing.Err = journal.TypeFailed, "recovery: "+err.Error()
			rec.Failed++
		case !ok:
			rec.Skipped++ // already satisfied
		default:
			// One submit per entry, not one batch: the incomplete set
			// can reach QueueDepth + Workers, and workers drain the
			// queue between serial submits, where a single batch would
			// refuse up to Workers acknowledged jobs at boot.
			if _, err := p.SubmitMeta(e.ID, Meta{Kind: e.Kind, Req: e.Req}, fn); err != nil {
				rec.Failed++
			} else {
				rec.Requeued++
			}
			continue
		}
		if p.cfg.Journal != nil {
			_ = p.cfg.Journal.Append(closing)
		}
	}
	return rec
}
