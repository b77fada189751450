package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"starperf/internal/jobs"
	"starperf/internal/traffic"
)

// syncResult is one predict or bounds call as the load side saw it,
// on the recorder clock.
type syncResult struct {
	release  time.Duration
	ack      time.Duration // status line received
	end      time.Duration // client call returned a verified result
	http     exchange
	err      error
	id       string
	keepBody []byte
}

// syncPhase is one open-loop phase of predict-open or ring3-predict.
type syncPhase struct {
	ops  []syncOp
	res  []syncResult
	loop *openLoop
}

// execSync sends op through the public client of its target node.
// keep retains the verified result body for later checks.
func (r *runner) execSync(ctx context.Context, e *env, op syncOp, keep bool) syncResult {
	cap := &capture{}
	cctx := withCapture(ctx, cap)
	c := e.clients[op.node]
	var err error
	if op.kind == "bounds" {
		_, err = c.PredictBounds(cctx, clientBounds(op.bounds))
	} else {
		_, err = c.Predict(cctx, clientPredict(op.predict))
	}
	res := syncResult{end: r.rec.now(), err: err}
	res.ack = res.end
	if len(cap.ex) > 0 {
		res.http = cap.ex[0]
		res.ack, res.id = res.http.header, res.http.id
		if keep {
			res.keepBody = res.http.result
		}
		res.http.result = nil
	}
	if err == nil && op.hot && res.id != op.id {
		r.checks.fail("hot %s served under id %s, want %s", op.kind, res.id, op.id)
	}
	return res
}

func (r *runner) runSync(ctx context.Context) error {
	hot, err := hotSet(r.rng.Split())
	if err != nil {
		return err
	}
	stream := &syncStream{rng: r.rng.Split(), hot: hot, nodes: r.spec.nodes}
	dueRNG, sampleRNG := r.rng.Split(), r.rng.Split()

	warmBodies := make([][]byte, len(hot))
	err = r.setUp(ctx, func(ctx context.Context, e *env) error {
		for i, op := range hot {
			op.node = i % len(e.nodes)
			res := r.execSync(ctx, e, op, true)
			if res.err != nil {
				return res.err
			}
			warmBodies[i] = res.keepBody
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, op := range hot {
		checkReference(r.checks, op.predict, warmBodies[i])
	}

	if r.opt.trace {
		openDur := r.traceTime()
		base := r.syncOpen(ctx, stream, dueRNG, openDur, false)
		r.checkSyncPhase(base, sampleRNG)
		before, err := r.env.metricsz(ctx)
		if err != nil {
			return err
		}
		r.rec.setLogging(true)
		traced := r.syncOpen(ctx, stream, dueRNG, openDur, true)
		r.rec.setLogging(false)
		after, err := r.env.metricsz(ctx)
		if err != nil {
			return err
		}
		r.checkSyncPhase(traced, sampleRNG)
		r.traceSync(ctx, base, traced, hot, warmBodies, before, after, sampleRNG)
		return nil
	}

	var mu sync.Mutex
	return r.measure(ctx, func(d time.Duration) ([]float64, []float64) {
		p := r.syncOpen(ctx, stream, dueRNG, d, false)
		r.checkSyncPhase(p, sampleRNG)
		return p.latencies()
	}, func(d time.Duration) float64 {
		var failed atomic.Int64
		rate, done := runClosed(ctx, r.rec.now, callers, d, func(ctx context.Context) []time.Duration {
			mu.Lock()
			op := stream.next()
			mu.Unlock()
			res := r.execSync(ctx, r.env, op, false)
			if res.err != nil {
				failed.Add(1)
				return nil
			}
			return []time.Duration{res.end}
		})
		r.rep.attempted += done + int(failed.Load())
		r.rep.failed += int(failed.Load())
		return rate
	})
}

// syncOpen runs one open-loop phase at syncRate over dur. keepAll
// retains every result body (traced phases replay them); otherwise
// only fresh results are kept, for the reference sample.
func (r *runner) syncOpen(ctx context.Context, stream *syncStream, dueRNG *traffic.RNG, dur time.Duration, keepAll bool) *syncPhase {
	dues := poissonDues(dueRNG, syncRate, dur)
	p := &syncPhase{ops: make([]syncOp, len(dues)), res: make([]syncResult, len(dues))}
	for i := range p.ops {
		p.ops[i] = stream.next()
	}
	var finished atomic.Int64
	p.loop = runOpen(ctx, r.rec.now, dues, senders, func(ctx context.Context, i int, release time.Duration) {
		op := p.ops[i]
		p.res[i] = r.execSync(ctx, r.env, op, keepAll || !op.hot)
		p.res[i].release = release
		finished.Add(1)
	}, &finished)
	r.loops = append(r.loops, p.loop)
	return p
}

// latencies returns release-to-result and release-to-acknowledgement
// times in ms; a failed operation counts as +Inf in both.
func (p *syncPhase) latencies() (lat, ack []float64) {
	lat = make([]float64, len(p.res))
	ack = make([]float64, len(p.res))
	for i, res := range p.res {
		if res.err != nil {
			lat[i], ack[i] = math.Inf(1), math.Inf(1)
			continue
		}
		lat[i], ack[i] = ms(res.end-res.release), ms(res.ack-res.release)
	}
	return lat, ack
}

// referenceSample is how many fresh results of each kind per phase are
// compared with a direct evaluation.
const referenceSample = 2

// checkSyncPhase counts a phase's operations and failures, checks each
// fresh result's content id against jobs.Hash of its request, and
// compares a seeded sample of fresh results with a direct evaluation.
func (r *runner) checkSyncPhase(p *syncPhase, sampleRNG *traffic.RNG) {
	r.rep.attempted += len(p.res)
	var fresh = map[string][]int{}
	for i, res := range p.res {
		op := p.ops[i]
		if res.err != nil {
			r.rep.failed++
			continue
		}
		if op.hot {
			continue
		}
		kind, req := op.request()
		if id, err := jobs.Hash(kind, req); err != nil {
			r.checks.fail("hashing a %s request: %v", kind, err)
		} else if id != res.id {
			r.checks.fail("%s served under id %s, want %s", kind, res.id, id)
		}
		fresh[kind] = append(fresh[kind], i)
	}
	for _, kind := range []string{"predict", "bounds"} {
		for i := range pick(sampleRNG, fresh[kind], referenceSample) {
			_, req := p.ops[i].request()
			checkReference(r.checks, req, p.res[i].keepBody)
		}
	}
}
