package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"starperf/internal/traffic"
)

// spec is one workload.
type spec struct {
	name    string
	nodes   int  // in-process starperfd nodes; more than one forms a ring
	durable bool // journal on a temp dir with fsync on
	jobs    bool // async simulate jobs instead of sync predict/bounds
}

var workloads = []spec{
	{name: "predict-open", nodes: 1},
	{name: "jobs-async", nodes: 1, durable: true, jobs: true},
	{name: "ring3-predict", nodes: 3},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64 // measured time
	trace   bool
	tmpRoot string // per-workload temp dirs are made here
	spanDir string // traced runs write their spans here; "" writes none
}

// An untraced run measures in windows stretches, each an open-loop
// phase of openShare of its time followed by a closed-loop phase. A
// figure is the median of the stretches' figures, so a disturbance
// that lasts part of a run, on a shared host, moves few of them. A
// traced run spends half the open-loop share untraced and half traced.
const (
	windows   = 10
	openShare = 0.8
	senders   = 2 // load-side concurrency: nproc of the reference host
	callers   = 2 // closed-loop callers

	// procs is the process's GOMAXPROCS, fixed so the figures do not
	// depend on the host's CPU count. It exceeds the reference host's 2
	// CPUs because the load side and every node share one process: with
	// 2 Ps the two busy pool workers would hold both, and every request
	// would wait for Go's 10 ms preemption, which the separate processes
	// they stand in for would not see.
	procs = 8
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	tails     map[string]metric // printed, not in the result line
	notes     []string          // human-readable diagnostics
	problems  []string          // failed checks
}

// runner holds one workload run's shared state.
type runner struct {
	spec   spec
	opt    options
	checks *checks
	rec    *recorder
	env    *env
	rng    *traffic.RNG
	warm   func(context.Context, *env) error // completes a set-up
	setup  []float64                         // seconds per timed set-up
	loops  []*openLoop                       // every open-loop phase, for the validity checks
	rep    *report
	values map[string]float64
}

func (r *runner) note(format string, args ...any) {
	r.rep.notes = append(r.rep.notes, fmt.Sprintf(format, args...))
}

func (r *runner) problem(format string, args ...any) {
	r.rep.problems = append(r.rep.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload and checks its outputs. The returned
// error is for a run that could not be carried out at all; failed
// checks are in the report.
func runWorkload(ctx context.Context, w spec, opt options) (*report, error) {
	ck := &checks{}
	r := &runner{
		spec:   w,
		opt:    opt,
		checks: ck,
		rec:    newRecorder(time.Now(), ck),
		rng:    traffic.NewRNG(opt.seed),
		rep:    &report{workload: w.name},
		values: make(map[string]float64),
	}
	defer func() {
		if r.env != nil {
			if err := r.env.close(); err != nil {
				r.problem("shutting down: %v", err)
			}
		}
	}()
	runtime.GOMAXPROCS(procs)
	var err error
	if w.jobs {
		err = r.runJobs(ctx)
	} else {
		err = r.runSync(ctx)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		r.problem("workload %s: %v", w.name, ctx.Err())
	}
	slack := float64(4 * senders)
	if w.jobs {
		slack = batchItems
	}
	for _, bad := range validate(r.loops, slack) {
		r.problem("%s", bad)
	}
	if err := r.env.close(); err != nil {
		r.problem("shutting down: %v", err)
	}
	r.env = nil
	return r.finish(), nil
}

// build sets up one system, warms it, and records how long that took.
func (r *runner) build(ctx context.Context) (*env, error) {
	start := time.Now()
	e, err := startEnv(ctx, r.spec.nodes, r.spec.durable, r.opt.tmpRoot, r.rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := r.warm(ctx, e); err != nil {
		return nil, errors.Join(fmt.Errorf("warming: %w", err), e.close())
	}
	r.setup = append(r.setup, time.Since(start).Seconds())
	return e, nil
}

// setUp builds the measured system. warm completes each set-up, such
// as filling the hot set.
func (r *runner) setUp(ctx context.Context, warm func(context.Context, *env) error) error {
	r.warm = warm
	e, err := r.build(ctx)
	r.env = e
	return err
}

// timeSetUp builds and tears down one more system beside the measured
// one, only to time its set-up. An untraced run does this after every
// stretch, so setup_s is a median over set-ups spread across the run.
func (r *runner) timeSetUp(ctx context.Context) error {
	e, err := r.build(ctx)
	if err != nil {
		return err
	}
	return e.close()
}

// traceTime is the length of each open-loop half of a traced run.
func (r *runner) traceTime() time.Duration {
	return time.Duration(r.opt.seconds * openShare / 2 * float64(time.Second))
}

// measure runs an untraced run's stretches. open runs one open-loop
// phase and returns its latency and acknowledgement samples in ms;
// closed runs one closed-loop phase and returns its completion rate.
func (r *runner) measure(ctx context.Context, open func(time.Duration) (lat, ack []float64), closed func(time.Duration) float64) error {
	total := time.Duration(r.opt.seconds * float64(time.Second) / windows)
	openDur := time.Duration(openShare * float64(total))
	var lats, acks [][]float64
	var rates []float64
	for k := 0; k < windows; k++ {
		lat, ack := open(openDur)
		lats, acks = append(lats, lat), append(acks, ack)
		rates = append(rates, closed(total-openDur))
		if err := r.timeSetUp(ctx); err != nil {
			return err
		}
	}
	r.latencyFigures("latency", lats)
	r.latencyFigures("ack", acks)
	r.values["peak_ops_s"] = median(rates)
	r.note("peak_ops_s: median of %d closed-loop stretches of %v with %d callers: %.1f", windows, total-openDur, callers, rates)
	return nil
}

// latencyFigures reports under prefix the median over stretches of
// each stretch's p50 and p99, and notes the whole run's p50, p99,
// p99.9 and sample count. Failed operations enter as +Inf: they miss
// any latency limit.
func (r *runner) latencyFigures(prefix string, stretches [][]float64) {
	var p50, p99, all []float64
	for _, xs := range stretches {
		all = append(all, xs...)
		p50, p99 = append(p50, quantile(xs, 0.5)), append(p99, quantile(xs, 0.99))
	}
	r.values[prefix+"_p50_ms"], r.values[prefix+"_p99_ms"] = median(p50), median(p99)
	n := len(all)
	r.note("%s: whole run p50 %.4f ms, p99 %.4f ms, p99.9 %.4f ms (diagnostic) over %d samples, %d beyond p99; stretch p99s %.3f",
		prefix, quantile(all, 0.5), quantile(all, 0.99), quantile(all, 0.999), n, n-int(math.Ceil(0.99*float64(n))), p99)
}

// finish assembles the report's metrics and verdict.
func (r *runner) finish() *report {
	rep := r.rep
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	} else {
		r.values["setup_s"] = median(r.setup)
		r.values["peak_rss_mb"] = peakRSSMB()
		r.note("setup_s: median of %d set-ups spread over the run: %.6f", len(r.setup), r.setup)
	}
	rep.metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		switch {
		case !ok:
			r.problem("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.problem("metric %s is not finite (%v)", d.name, v)
			v = 0
		}
		rep.metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if !r.opt.trace {
		rep.tails = make(map[string]metric, len(tails))
		for _, d := range tails {
			rep.tails[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
		}
	}
	if rep.attempted > 0 {
		er := float64(rep.failed) / float64(rep.attempted)
		r.values["error_ratio"] = er
		r.note("error_ratio: %d failed of %d attempted", rep.failed, rep.attempted)
		if er > maxErrorRatio {
			r.problem("error ratio %g above %g: the operating point is not a steady one", er, maxErrorRatio)
		}
	} else {
		r.problem("no operation was attempted")
	}
	r.note("verified %d result bodies against their checksums", r.rec.verified.Load())
	if n := r.rec.resultless.Load(); n > 0 {
		r.note("%d job polls answered \"done\" without the result; the client polled again", n)
	}
	for _, m := range r.checks.messages() {
		r.problem("correctness: %s", m)
	}
	if n := r.checks.count(); n > len(r.checks.messages()) {
		r.problem("correctness: %d more failures", n-len(r.checks.messages()))
	}
	rep.correct = len(rep.problems) == 0
	return rep
}

// maxErrorRatio is the share of failed operations beyond which a run
// fails: at that point p99 itself is a failure.
const maxErrorRatio = 0.005

// peakRSSMB returns the process's peak resident set in MiB, from
// /proc/self/status (VmHWM), or NaN where that is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
