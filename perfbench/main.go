// Command perfbench is the end-to-end benchmark of starperfd. It
// starts starperfd nodes in-process, each server.New behind a real
// 127.0.0.1:0 listener, drives them through their HTTP API with the
// public client, checks every output, and prints the figures a user
// sees. A traced run (-trace 1) of the same workload prints the
// per-layer figures instead.
//
// Workloads:
//
//	predict-open   one node, memory cache, no journal; 1000 predict/bounds requests/s
//	jobs-async     one node, journal with fsync on; ~64 simulate jobs/s, single and batched
//	ring3-predict  three nodes on a consistent-hash ring; the predict-open stream, any node
//	all            the three in turn
//
// Each run has an open-loop phase (Poisson arrivals at a fixed rate,
// timed from each request's release) for the latency figures and a
// closed-loop phase (two callers) for peak_ops_s. The seed generates
// every input with traffic.RNG. Any failed correctness or
// generator-validity check makes the run exit 1. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload predict-open --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// wallCap bounds one workload's wall-clock time: the measured time
// plus set-up, drain and checks, and never past the 180 s a run may
// take.
func wallCap(seconds float64) time.Duration {
	d := time.Duration((2*seconds + 60) * float64(time.Second))
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return d
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "predict-open, jobs-async, ring3-predict or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run, printing per-layer figures")
	root := fs.String("root", ".", "checkout root: temp dirs and spans go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	var todo []spec
	if *workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workload); ok {
		todo = []spec{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *workload)
		return 2
	}
	build := filepath.Join(*root, ".bench_build")
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		spanDir: filepath.Join(build, "spans"),
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	opt.tmpRoot = tmp

	// An interrupt cancels the run, which then stops its nodes and
	// removes its temp dirs like any failed run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var reps []*report
	for _, w := range todo {
		rep, err := runCapped(ctx, w, opt, stderr, func() { os.RemoveAll(tmp) })
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stderr, rep, opt)
		reps = append(reps, rep)
	}
	if err := printResult(stdout, reps); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, rep := range reps {
		if !rep.correct {
			return 1
		}
	}
	return 0
}

// runCapped runs one workload under its wall-clock cap. A workload
// that overruns the cap fails with a named error; one that then still
// does not return is abandoned: cleanup runs and the process exits 1.
func runCapped(parent context.Context, w spec, opt options, stderr io.Writer, cleanup func()) (*report, error) {
	limit := wallCap(opt.seconds)
	ctx, cancel := context.WithTimeout(parent, limit)
	defer cancel()
	hard := time.AfterFunc(limit+10*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: workload %s exceeded its wall-clock cap of %v and did not stop\n", w.name, limit)
		cleanup()
		os.Exit(1)
	})
	defer hard.Stop()
	rep, err := runWorkload(ctx, w, opt)
	switch {
	case err != nil:
	case parent.Err() != nil:
		err = fmt.Errorf("workload %s interrupted", w.name)
	case ctx.Err() != nil:
		err = fmt.Errorf("workload %s exceeded its wall-clock cap of %v", w.name, limit)
	}
	return rep, err
}

// printReport writes a workload's figures and diagnostics for people.
func printReport(w io.Writer, rep *report, opt options) {
	kind := "end-to-end"
	defs := endToEnd
	if opt.trace {
		kind, defs = "per-layer (replay-derived times are estimates)", perLayer
	}
	fmt.Fprintf(w, "== %s seed %d: %s figures\n", rep.workload, opt.seed, kind)
	for _, d := range defs {
		m := rep.metrics[d.name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	for _, d := range tails {
		if m, ok := rep.tails[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s (printed, not gated)\n", d.name, m.Value, m.Unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", rep.correct, rep.attempted, rep.failed)
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the last line: one workload's result, or for
// several the combined verdict with metrics named <workload>/<metric>.
func printResult(w io.Writer, reps []*report) error {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range reps {
		res.Correct = res.Correct && rep.correct
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		for name, m := range rep.metrics {
			if len(reps) > 1 {
				name = rep.workload + "/" + name
			}
			res.Metrics[name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
