package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"starperf/client"
	"starperf/internal/jobs"
	"starperf/internal/server"
	"starperf/internal/traffic"
)

// jobRec is one jobs-async job, on the recorder clock.
type jobRec struct {
	sub     int
	req     server.SimulateRequest
	id      string
	release time.Duration
	done    time.Duration // its verified result was fetched
	result  []byte
	err     error
}

// subRec is one submission: a single job or a batch.
type subRec struct {
	release, ack time.Duration
	err          error
	left         int // jobs not yet terminal
}

// jobPhase is one open-loop phase of jobs-async. Its tracker state is
// guarded by mu: the sender adds jobs, the poller finishes them.
type jobPhase struct {
	subs  []submission
	first []int // index of each submission's first job
	loop  *openLoop
	polls atomic.Int64

	mu       sync.Mutex
	jobs     []jobRec
	recs     []subRec
	pending  map[string]int // id → job index, awaiting its result
	order    []int          // pending job indexes in submission order
	released bool           // every submission has been sent
	finished atomic.Int64   // submissions whose jobs are all terminal
}

func newJobPhase(subs []submission) *jobPhase {
	p := &jobPhase{subs: subs, first: make([]int, len(subs)), recs: make([]subRec, len(subs)), pending: map[string]int{}}
	for i, s := range subs {
		p.first[i] = len(p.jobs)
		for _, req := range s.items {
			p.jobs = append(p.jobs, jobRec{sub: i, req: req})
		}
		p.recs[i].left = len(s.items)
	}
	return p
}

// submitted records submission i's acknowledgement and the ids (or
// errors) of its jobs.
func (p *jobPhase) submitted(i int, release, ack time.Duration, ids []string, errs []error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recs[i].release, p.recs[i].ack = release, ack
	for k := range p.subs[i].items {
		j := p.first[i] + k
		p.jobs[j].release = release
		if errs[k] != nil {
			p.recs[i].err = errs[k]
			p.finishLocked(j, 0, nil, errs[k])
			continue
		}
		p.jobs[j].id = ids[k]
		p.pending[ids[k]] = j
		p.order = append(p.order, j)
	}
}

func (p *jobPhase) finishLocked(j int, done time.Duration, result []byte, err error) {
	p.jobs[j].done, p.jobs[j].result, p.jobs[j].err = done, result, err
	s := p.jobs[j].sub
	if p.recs[s].left--; p.recs[s].left == 0 {
		p.finished.Add(1)
	}
}

// snapshot returns the pending ids in submission order, and whether
// no more will come.
func (p *jobPhase) snapshot() ([]string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.order))
	for _, j := range p.order {
		ids = append(ids, p.jobs[j].id)
	}
	return ids, p.released
}

func (p *jobPhase) finish(id string, done time.Duration, result []byte, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.pending[id]
	if !ok {
		return
	}
	delete(p.pending, id)
	for k, o := range p.order {
		if o == j {
			p.order = append(p.order[:k], p.order[k+1:]...)
			break
		}
	}
	p.finishLocked(j, done, result, err)
}

func (p *jobPhase) closeIntake() {
	p.mu.Lock()
	p.released = true
	p.mu.Unlock()
}

// poll is the open-loop poller: one goroutine that sweeps the pending
// ids with the public client's WaitBatch until every job is terminal.
// A job's result time is the moment a poll delivered its verified
// result.
func (p *jobPhase) poll(ctx context.Context, c *client.Client) {
	for {
		ids, last := p.snapshot()
		if len(ids) == 0 {
			if last {
				return
			}
			time.Sleep(sweepPeriod)
			continue
		}
		cap := &capture{}
		res := c.WaitBatch(withCapture(ctx, cap), ids)
		at := make(map[string]time.Duration, len(ids))
		for _, ex := range cap.ex {
			if ex.route == "poll" {
				p.polls.Add(1)
				if ex.result != nil {
					at[ex.id] = ex.end
				}
			}
		}
		for _, jr := range res {
			p.finish(jr.ID, at[jr.ID], jr.Result, jr.Err)
		}
	}
}

// submitSingle posts one job to /v1/simulate and returns its id. The
// public client has no submit-only call for this route (Simulate also
// waits for the result), so the benchmark posts through the same
// instrumented HTTP client.
func submitSingle(ctx context.Context, e *env, req server.SimulateRequest) (string, error) {
	body, err := json.Marshal(clientSimulate(req))
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.nodes[0].base+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := e.httpc.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST /v1/simulate: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var env struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.ID == "" || env.Status == "failed" {
		return "", fmt.Errorf("POST /v1/simulate: bad acknowledgement %s (%v)", raw, err)
	}
	return env.ID, nil
}

// submit sends submission sub and returns its jobs' ids or errors.
func submit(ctx context.Context, e *env, sub submission) ([]string, []error) {
	ids := make([]string, len(sub.items))
	errs := make([]error, len(sub.items))
	if !sub.batch {
		ids[0], errs[0] = submitSingle(ctx, e, sub.items[0])
		return ids, errs
	}
	items := make([]client.BatchItem, len(sub.items))
	for k, req := range sub.items {
		items[k] = client.BatchItem{Kind: "simulate", Config: clientSimulate(req)}
	}
	st, err := e.clients[0].SubmitBatch(ctx, items)
	for k := range items {
		switch {
		case err != nil:
			errs[k] = err
		case st[k].Err != nil:
			errs[k] = st[k].Err
		default:
			ids[k] = st[k].ID
		}
	}
	return ids, errs
}

func (r *runner) runJobs(ctx context.Context) error {
	stream := &jobStream{rng: r.rng.Split()}
	dueRNG, sampleRNG := r.rng.Split(), r.rng.Split()
	if err := r.setUp(ctx, func(context.Context, *env) error { return nil }); err != nil {
		return err
	}
	if r.opt.trace {
		openDur := r.traceTime()
		base := r.jobsOpen(ctx, stream, dueRNG, openDur)
		r.checkJobPhase(base, sampleRNG)
		before, err := r.env.metricsz(ctx)
		if err != nil {
			return err
		}
		r.rec.setLogging(true)
		traced := r.jobsOpen(ctx, stream, dueRNG, openDur)
		r.rec.setLogging(false)
		after, err := r.env.metricsz(ctx)
		if err != nil {
			return err
		}
		r.checkJobPhase(traced, sampleRNG)
		r.traceJobs(ctx, base, traced, before, after, sampleRNG)
		return nil
	}

	// The closed loop submits batches only: with one batch in flight
	// per caller the pool's workers, not the callers' poll round trips,
	// bound the rate.
	var mu sync.Mutex
	return r.measure(ctx, func(d time.Duration) ([]float64, []float64) {
		p := r.jobsOpen(ctx, stream, dueRNG, d)
		r.checkJobPhase(p, sampleRNG)
		return p.latencies()
	}, func(d time.Duration) float64 {
		var failed, attempted atomic.Int64
		rate, _ := runClosed(ctx, r.rec.now, callers, d, func(ctx context.Context) []time.Duration {
			mu.Lock()
			sub := stream.batch()
			mu.Unlock()
			attempted.Add(int64(len(sub.items)))
			ids, errs := submit(ctx, r.env, sub)
			var ok []string
			for k, err := range errs {
				if err != nil {
					failed.Add(1)
					continue
				}
				ok = append(ok, ids[k])
			}
			cap := &capture{}
			for _, jr := range r.env.clients[0].WaitBatch(withCapture(ctx, cap), ok) {
				if jr.Err != nil {
					failed.Add(1)
				}
			}
			var done []time.Duration
			for _, ex := range cap.ex {
				if ex.route == "poll" && ex.result != nil {
					done = append(done, ex.end)
				}
			}
			return done
		})
		r.rep.attempted += int(attempted.Load())
		r.rep.failed += int(failed.Load())
		return rate
	})
}

// jobsOpen runs one open-loop phase at jobSubmitRate over dur: one
// sender submits, one poller fetches results, so the load side holds
// at most two connections.
func (r *runner) jobsOpen(ctx context.Context, stream *jobStream, dueRNG *traffic.RNG, dur time.Duration) *jobPhase {
	dues := poissonDues(dueRNG, jobSubmitRate, dur)
	subs := make([]submission, len(dues))
	for i := range subs {
		subs[i] = stream.next()
	}
	p := newJobPhase(subs)
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		p.poll(ctx, r.env.clients[0])
	}()
	p.loop = runOpen(ctx, r.rec.now, dues, 1, func(ctx context.Context, i int, release time.Duration) {
		cap := &capture{}
		ids, errs := submit(withCapture(ctx, cap), r.env, p.subs[i])
		ack := r.rec.now()
		if len(cap.ex) > 0 {
			ack = cap.ex[0].header
		}
		p.submitted(i, release, ack, ids, errs)
	}, &p.finished)
	p.closeIntake()
	<-polled
	r.loops = append(r.loops, p.loop)
	return p
}

// latencies returns per-job release-to-result times and per-submission
// release-to-acknowledgement times in ms; failures count as +Inf.
func (p *jobPhase) latencies() (lat, ack []float64) {
	for _, j := range p.jobs {
		if j.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(j.done-j.release))
	}
	for _, s := range p.recs {
		if s.err != nil {
			ack = append(ack, math.Inf(1))
			continue
		}
		ack = append(ack, ms(s.ack-s.release))
	}
	return lat, ack
}

// simulateSample is how many jobs per phase are compared with a
// direct simulator run.
const simulateSample = 1

// checkJobPhase counts a phase's jobs and failures, checks every job's
// id against jobs.Hash of its request, and compares a seeded sample of
// results with a direct desim.Run.
func (r *runner) checkJobPhase(p *jobPhase, sampleRNG *traffic.RNG) {
	r.rep.attempted += len(p.jobs)
	var ok []int
	for i, j := range p.jobs {
		if j.err != nil {
			r.rep.failed++
			continue
		}
		if id, err := jobs.Hash("simulate", j.req); err != nil {
			r.checks.fail("hashing a simulate request: %v", err)
		} else if id != j.id {
			r.checks.fail("simulate served under id %s, want %s", j.id, id)
		}
		ok = append(ok, i)
	}
	for i := range pick(sampleRNG, ok, simulateSample) {
		checkReference(r.checks, p.jobs[i].req, p.jobs[i].result)
	}
}
