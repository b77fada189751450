package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"starperf/internal/bounds"
	"starperf/internal/cache"
	"starperf/internal/cluster"
	"starperf/internal/desim"
	"starperf/internal/jobs"
	"starperf/internal/model"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/traffic"
)

// A traced run records spans in memory and writes them out at the
// end. Root spans are the load side's own: one per operation (release
// to result) and one per HTTP exchange under it. Child spans below the
// HTTP exchange are recorded after the load phase, by replaying each
// operation's own inputs through the layers' public functions
// (jobs.Hash, a private cache.Cache, model.Evaluate, bounds.Evaluate,
// desim.Run, cluster.Ring.Successors), so they do not perturb the
// load. Their times, and every self time derived from them, are
// estimates: they are measured outside the server, on an idle system.

// span is one traced interval. Spans of one request share its content
// id; Parent names the enclosing span.
type span struct {
	Name     string `json:"name"`
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Estimate bool   `json:"estimate,omitempty"`
}

type tracer struct{ spans []span }

func (t *tracer) add(name, id, parent string, start, end time.Duration, estimate bool) {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: int64(start), EndNS: int64(end), Estimate: estimate})
}

// replay times f as one child span of parent and returns its duration.
func (r *runner) replay(t *tracer, name, id, parent string, f func()) time.Duration {
	start := r.rec.now()
	f()
	end := r.rec.now()
	t.add(name, id, parent, start, end, true)
	return end - start
}

// allocs runs f and returns the heap allocations it made. Only the
// replay runs at that point, so the process-wide count is f's.
func allocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// Replay caps: the slow layers are replayed on a seeded sample.
const (
	modelReplays  = 256
	boundsReplays = 128
	desimReplays  = 8
)

// pick returns a seeded random choice of up to n of idx.
func pick(rng *traffic.RNG, idx []int, n int) map[int]bool {
	idx = append([]int(nil), idx...)
	out := make(map[int]bool)
	for len(out) < n && len(idx) > 0 {
		j := rng.Intn(len(idx))
		out[idx[j]] = true
		idx[j] = idx[len(idx)-1]
		idx = idx[:len(idx)-1]
	}
	return out
}

// starTop caches the topologies and path structures replays need,
// built outside the timed calls.
type starTop struct {
	top   map[int]topology.Topology
	paths map[int]model.PathStructure
}

func (s *starTop) get(n int) (topology.Topology, model.PathStructure, error) {
	if s.top == nil {
		s.top, s.paths = map[int]topology.Topology{}, map[int]model.PathStructure{}
	}
	if t, ok := s.top[n]; ok {
		return t, s.paths[n], nil
	}
	t, err := stargraph.New(n)
	if err != nil {
		return nil, nil, err
	}
	p, err := model.NewStarPaths(n)
	if err != nil {
		return nil, nil, err
	}
	s.top[n], s.paths[n] = t, p
	return t, p, nil
}

// routeFigures sets the http.<route> p50/p99 figures from the HTTP
// exchanges the traced phase made, and adds them as spans.
func (r *runner) routeFigures(t *tracer, log []exchange) {
	byRoute := map[string][]float64{}
	for _, ex := range log {
		byRoute[ex.route] = append(byRoute[ex.route], us(ex.end-ex.start))
		t.add("http."+ex.route, ex.id, "op", ex.start, ex.end, false)
	}
	for _, route := range []string{"predict", "bounds", "simulate", "batch", "poll"} {
		xs := byRoute[route]
		r.values["http."+route+"_p50_us"], r.values["http."+route+"_p99_us"] = 0, 0
		if len(xs) > 0 {
			r.values["http."+route+"_p50_us"] = quantile(xs, 0.5)
			r.values["http."+route+"_p99_us"] = quantile(xs, 0.99)
			r.note("http.%s: %d exchanges", route, len(xs))
		}
	}
}

// metricszFigures sets the per-layer counters from the difference of
// every node's /metricsz across the traced phase.
func (r *runner) metricszFigures(before, after []server.Metricsz) {
	var (
		submitted, deduped, rejected, completed, execSum   float64
		hits, misses, evictions, routeErrs, shed, brk      float64
		commits, records, syncs, commitMean                float64
		items, batchShed                                   float64
		received, forwarded, fwdErrs, failovers, fallbacks float64
	)
	for i := range after {
		b, a := before[i], after[i]
		submitted += float64(a.Pool.Submitted - b.Pool.Submitted)
		deduped += float64(a.Pool.Deduped - b.Pool.Deduped)
		rejected += float64(a.Pool.Rejected - b.Pool.Rejected)
		completed += float64(a.Pool.Completed)
		execSum += float64(a.Pool.Completed) * a.Pool.ExecMeanMicros
		hits += float64(a.Cache.Hits() - b.Cache.Hits())
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		evictions += float64(a.Cache.Evictions - b.Cache.Evictions)
		prev := map[string]obs.RouteStats{}
		for _, rs := range b.Routes {
			prev[rs.Route] = rs
		}
		for _, rs := range a.Routes {
			routeErrs += float64(rs.Errors - prev[rs.Route].Errors)
			if rs.Route == "/v1/predict" || rs.Route == "/v1/bounds" {
				received += float64(rs.Count - prev[rs.Route].Count)
			}
		}
		shed += float64(a.Admission.Shed - b.Admission.Shed)
		brk += float64(a.Admission.BreakerRejected - b.Admission.BreakerRejected)
		if a.Journal != nil && b.Journal != nil {
			commits += float64(a.Journal.Commits - b.Journal.Commits)
			records += float64(a.Journal.CommitRecords - b.Journal.CommitRecords)
			syncs += float64(a.Journal.Syncs - b.Journal.Syncs)
			commitMean = a.Journal.CommitMeanMicros
		}
		items += float64(a.Batch.Items - b.Batch.Items)
		batchShed += float64(a.Batch.Shed - b.Batch.Shed)
		if a.Cluster != nil && b.Cluster != nil {
			forwarded += float64(a.Cluster.Forwarded - b.Cluster.Forwarded)
			fwdErrs += float64(a.Cluster.ForwardErrors - b.Cluster.ForwardErrors)
			failovers += float64(a.Cluster.Failovers - b.Cluster.Failovers)
			fallbacks += float64(a.Cluster.LocalFallbacks - b.Cluster.LocalFallbacks)
		}
	}
	v := r.values
	v["jobs.submitted"], v["jobs.deduped"], v["jobs.rejected"] = submitted, deduped, rejected
	v["jobs.exec_mean_us"] = ratio(execSum, completed) // whole-run mean: the pool keeps no per-phase one
	v["cache.hit_ratio"], v["cache.misses"], v["cache.evictions"] = ratio(hits, hits+misses), misses, evictions
	v["server.errors"], v["server.shed"], v["server.breaker_rejected"] = routeErrs, shed, brk
	v["journal.commits"], v["journal.records_per_commit"], v["journal.syncs"] = commits, ratio(records, commits), syncs
	v["journal.commit_mean_us"] = commitMean
	v["batch.items"], v["batch.shed"] = items, batchShed
	// Every forward arrives at its owner as one more request, so the
	// client's own requests are those received less those forwarded.
	v["cluster.forward_ratio"] = ratio(forwarded, received-forwarded)
	v["cluster.forward_errors"], v["cluster.failovers"], v["cluster.local_fallbacks"] = fwdErrs, failovers, fallbacks
}

// zeroLayers sets the figures of layers the workload does not
// exercise; the measured ones overwrite them.
func (r *runner) zeroLayers() {
	for _, d := range perLayer {
		r.values[d.name] = 0
	}
}

func (r *runner) traceSync(ctx context.Context, base, traced *syncPhase, hot []syncOp, warm [][]byte,
	before, after []server.Metricsz, rng *traffic.RNG) {
	r.zeroLayers()
	t := &tracer{}
	for k, v := range traced.loop.genMetrics() {
		r.values[k] = v
	}
	baseLat, _ := base.latencies()
	tracedLat, _ := traced.latencies()
	r.values["trace.overhead_p50_ms"] = median(tracedLat) - median(baseLat)
	r.routeFigures(t, r.rec.takeLog())
	r.metricszFigures(before, after)

	priv, err := cache.New(cache.Config{})
	if err != nil {
		r.problem("replay cache: %v", err)
		return
	}
	for i, op := range hot {
		priv.Put(op.id, warm[i])
	}
	var ring *cluster.Ring
	if len(r.env.nodes) > 1 {
		ring = r.env.nodes[0].ring
	}
	var missPredict, missBounds []int
	for i, res := range traced.res {
		if res.err == nil && res.http.cache == "miss" {
			if traced.ops[i].kind == "bounds" {
				missBounds = append(missBounds, i)
			} else {
				missPredict = append(missPredict, i)
			}
		}
	}
	evalPredict, evalBounds := pick(rng, missPredict, modelReplays), pick(rng, missBounds, boundsReplays)

	var stars starTop
	var hashUS, getUS, putUS, selfUS, modelUS, boundsUS, modelAllocs, boundsAllocs, iters []float64
	var ids []string
	for i, op := range traced.ops {
		res := traced.res[i]
		if res.err != nil {
			continue
		}
		kind, req := op.request()
		root := "op." + kind
		t.add(root, res.id, "", res.release, res.end, false)
		ids = append(ids, res.id)
		child := r.replay(t, "jobs.Hash", res.id, "http."+kind, func() { _, _ = jobs.Hash(kind, req) })
		hashUS = append(hashUS, us(child))
		d := r.replay(t, "cache.Get", res.id, "http."+kind, func() { priv.Get(res.id) })
		getUS = append(getUS, us(d))
		child += d
		if ring != nil {
			child += r.replay(t, "cluster.Successors", res.id, "http."+kind, func() { ring.Successors(res.id) })
		}
		full := true
		if res.http.cache == "miss" {
			switch {
			case evalPredict[i]:
				top, paths, err := stars.get(op.predict.Topo.N)
				if err != nil {
					r.problem("replay: %v", err)
					return
				}
				cfg := model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc, V: op.predict.V, MsgLen: op.predict.MsgLen, Rate: op.predict.Rate}
				var mres *model.Result
				var n uint64
				d = r.replay(t, "model.Evaluate", res.id, "http."+kind, func() { n = allocs(func() { mres, _ = model.Evaluate(cfg) }) })
				modelUS, modelAllocs = append(modelUS, us(d)), append(modelAllocs, float64(n))
				if mres != nil {
					iters = append(iters, float64(mres.Iterations))
				}
				child += d
			case evalBounds[i]:
				top, _, err := stars.get(op.bounds.Topo.N)
				if err != nil {
					r.problem("replay: %v", err)
					return
				}
				cfg := bounds.Config{Top: top, Kind: routing.EnhancedNbc, V: op.bounds.V, MsgLen: op.bounds.MsgLen, Rate: op.bounds.Rate, BufCap: op.bounds.BufCap, LinkBW: op.bounds.LinkBW}
				var n uint64
				d = r.replay(t, "bounds.Evaluate", res.id, "http."+kind, func() { n = allocs(func() { _, _ = bounds.Evaluate(cfg) }) })
				boundsUS, boundsAllocs = append(boundsUS, us(d)), append(boundsAllocs, float64(n))
				child += d
			default:
				full = false
			}
			d = r.replay(t, "cache.Put", res.id, "http."+kind, func() { priv.Put(res.id, res.keepBody) })
			putUS = append(putUS, us(d))
			child += d
		}
		if full {
			selfUS = append(selfUS, us(res.http.end-res.http.start-child))
		}
		if ctx.Err() != nil {
			break
		}
	}
	v := r.values
	v["jobs.hash_us"], v["cache.get_us"], v["cache.put_us"] = median(hashUS), median(getUS), median(putUS)
	v["server.self_us"] = median(selfUS)
	if len(modelUS) > 0 {
		v["model.evaluate_p50_us"], v["model.evaluate_p99_us"] = quantile(modelUS, 0.5), quantile(modelUS, 0.99)
		v["model.allocs"], v["model.iterations"] = median(modelAllocs), mean(iters)
	}
	if len(boundsUS) > 0 {
		v["bounds.evaluate_us"], v["bounds.allocs"] = median(boundsUS), median(boundsAllocs)
	}
	if ring != nil && len(ids) > 0 {
		start := time.Now()
		for _, id := range ids {
			ring.Successors(id)
		}
		v["cluster.successors_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(ids))
	}
	r.note("replayed %d operations: %d model and %d bounds evaluations (estimates)", len(ids), len(modelUS), len(boundsUS))
	r.writeSpans(t)
}

func (r *runner) traceJobs(ctx context.Context, base, traced *jobPhase, before, after []server.Metricsz, rng *traffic.RNG) {
	r.zeroLayers()
	t := &tracer{}
	for k, v := range traced.loop.genMetrics() {
		r.values[k] = v
	}
	baseLat, _ := base.latencies()
	tracedLat, _ := traced.latencies()
	r.values["trace.overhead_p50_ms"] = median(tracedLat) - median(baseLat)
	log := r.rec.takeLog()
	r.routeFigures(t, log)
	r.metricszFigures(before, after)

	priv, err := cache.New(cache.Config{})
	if err != nil {
		r.problem("replay cache: %v", err)
		return
	}
	var ok []int
	for i, j := range traced.jobs {
		if j.err == nil {
			ok = append(ok, i)
		}
	}
	r.values["client.polls_per_job"] = ratio(float64(traced.polls.Load()), float64(len(ok)))
	sim := pick(rng, ok, desimReplays)

	var stars starTop
	var hashUS, getUS, putUS, runMS, nsPerCycle, runAllocs []float64
	for _, i := range ok {
		j := traced.jobs[i]
		t.add("op.simulate", j.id, "", j.release, j.done, false)
		d := r.replay(t, "jobs.Hash", j.id, "http.simulate", func() { _, _ = jobs.Hash("simulate", j.req) })
		hashUS = append(hashUS, us(d))
		getUS = append(getUS, us(r.replay(t, "cache.Get", j.id, "http.poll", func() { priv.Get(j.id) })))
		putUS = append(putUS, us(r.replay(t, "cache.Put", j.id, "op.simulate", func() { priv.Put(j.id, j.result) })))
		if !sim[i] || ctx.Err() != nil {
			continue
		}
		top, _, err := stars.get(j.req.Topo.N)
		if err != nil {
			r.problem("replay: %v", err)
			return
		}
		spec, err := routing.New(routing.EnhancedNbc, top, j.req.V)
		if err != nil {
			r.problem("replay: %v", err)
			return
		}
		cfg := desim.Config{Top: top, Spec: spec, Rate: j.req.Rate, MsgLen: j.req.MsgLen, BufCap: j.req.BufCap, Seed: j.req.Seed,
			WarmupCycles: j.req.Warmup, MeasureCycles: j.req.Measure, DrainCycles: j.req.Drain}
		var res *desim.Result
		var n uint64
		d = r.replay(t, "desim.Run", j.id, "op.simulate", func() { n = allocs(func() { res, err = desim.Run(cfg) }) })
		if err != nil {
			r.problem("replay desim.Run: %v", err)
			return
		}
		runMS, runAllocs = append(runMS, ms(d)), append(runAllocs, float64(n))
		nsPerCycle = append(nsPerCycle, float64(d.Nanoseconds())/float64(res.Cycles))
	}
	var submitUS []float64
	for _, ex := range log {
		if ex.route == "simulate" {
			submitUS = append(submitUS, us(ex.end-ex.start))
		}
	}
	v := r.values
	v["jobs.hash_us"], v["cache.get_us"], v["cache.put_us"] = median(hashUS), median(getUS), median(putUS)
	// A single submission's server work beyond hashing: decode,
	// validate, admission and the durable journal append.
	v["server.self_us"] = median(submitUS) - median(hashUS)
	v["desim.run_ms"], v["desim.ns_per_cycle"], v["desim.allocs_per_run"] = median(runMS), median(nsPerCycle), median(runAllocs)
	r.note("replayed %d jobs: %d simulator runs (estimates)", len(ok), len(runMS))
	r.writeSpans(t)
}

// writeSpans writes the traced run's spans as JSON lines under
// opt.spanDir.
func (r *runner) writeSpans(t *tracer) {
	if r.opt.spanDir == "" {
		return
	}
	if err := os.MkdirAll(r.opt.spanDir, 0o755); err != nil {
		r.problem("writing spans: %v", err)
		return
	}
	path := filepath.Join(r.opt.spanDir, fmt.Sprintf("%s-seed%d.jsonl", r.spec.name, r.opt.seed))
	f, err := os.Create(path)
	if err != nil {
		r.problem("writing spans: %v", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.problem("writing spans: %v", err)
		return
	}
	r.note("wrote %d spans to %s", len(t.spans), path)
}
