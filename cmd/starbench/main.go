// Command starbench runs starperf's component microbenchmarks and
// writes each suite's result as JSON to its checked-in reference file
// at the repo root. The suites, and the commands that regenerate them:
//
//	go run ./cmd/starbench -out BENCH_sim.json                     # simulator ns/cycle, observer overhead
//	go run ./cmd/starbench -suite serve -out BENCH_serve.json      # content hash, two-tier cache, pool dispatch
//	go run ./cmd/starbench -suite journal -out BENCH_journal.json  # fsynced, unsynced, group-committed append; replay
//	go run ./cmd/starbench -suite bounds -out BENCH_bounds.json    # delay-bound evaluation cost per flow
//	go run ./cmd/starbench -suite predict -out BENCH_predict.json  # model miss: evaluation and fresh /v1/predict
//
// -out - writes to stdout; without -out a suite writes
// BENCH_<suite>.json. Every suite is a row of the suites table and
// shares one record format (see report). The output is machine-shaped
// (ns/op varies across hosts) but structurally stable: no timestamps
// or host details, so diffs show only the measured numbers.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// suite is one row of the suites table.
type suite struct {
	name     string
	workload string
	benches  func() ([]bench, error)
}

var suites = []suite{
	{"sim", "S4 EnhancedNbc V=4 rate=0.02 M=8 warmup=1000 measure=5000 seed=12345; jobs_async: the jobs-async simulate job, S4 EnhancedNbc V=6 rate=0.005 M=32 BufCap=2 warmup=1000 measure=4000 drain=20000 seed=401", simBenches},
	{"serve", "serving-layer hot paths: canonical content hash, two-tier cache, 4-worker pool dispatch", serveBenches},
	{"journal", "durable job journal: fsynced append, unsynced append, group-committed appends (64 concurrent appenders / 64-record AppendBatch, per record), cold replay of 1k records", journalBenches},
	{"bounds", "one worst-case delay-bound evaluation per topology (quadratic flow enumeration + fixed-point composition)", boundsBenches},
	{"predict", "model miss: one model evaluation, S5 EnhancedNbc V=6 M=32 rate=0.01 and S7 V=8 M=32 rate=0.002; predict_miss_s5: one S5 V=6 M=32 /v1/predict through the server handler (1 worker), rate 0.004 + i·1e-9 so every request misses the cache", predictBenches},
}

// bench is one benchmark of a suite: the variant it fills in (its
// name, and any descriptors known before timing) and the timed loop.
type bench struct {
	variant
	run func(*testing.B)
}

// named pairs a variant name with the configuration it runs.
type named[C any] struct {
	name string
	cfg  C
}

// evaluated runs op once per configuration, so describe can build
// the named variant from what the result tells, and returns benches
// that time op on the same configurations.
func evaluated[C, R any](cfgs []named[C], op func(C) (R, error), describe func(string, R) variant) ([]bench, error) {
	benches := make([]bench, 0, len(cfgs))
	for _, c := range cfgs {
		res, err := op(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		v := describe(c.name, res)
		cfg := c.cfg
		benches = append(benches, bench{v, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := op(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	return benches, nil
}

// report is the one record format every suite writes: a workload
// line, the command that regenerates the file, and one variant per
// benchmark.
type report struct {
	Workload            string    `json:"workload"`
	Command             string    `json:"command"`
	ObserverOverheadPct *float64  `json:"observer_overhead_pct,omitempty"`
	Variants            []variant `json:"variants"`
}

// variant is one benchmark's line of a report. Zero-valued optional
// fields are left out, as omitempty does; bounds' three descriptors
// are written together, keyed on flows.
type variant struct {
	Name        string  `json:"name"`
	Flows       int     `json:"flows,omitempty"`
	Channels    int     `json:"channels,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerCycle  float64 `json:"ns_per_cycle,omitempty"`
	NsPerFlow   float64 `json:"ns_per_flow,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	cycles      int64   // simulated cycles per op, the divisor of NsPerCycle
}

// command is the invocation that regenerates s's checked-in file;
// the first suite is the default and needs no -suite flag.
func (s suite) command() string {
	flags := " -suite " + s.name
	if s.name == suites[0].name {
		flags = ""
	}
	return "go run ./cmd/starbench" + flags + " -out BENCH_" + s.name + ".json"
}

// suiteNames lists the table for help text and errors:
// "sim, serve, journal, bounds or predict".
func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

func lookup(name string) (suite, error) {
	for _, s := range suites {
		if s.name == name {
			return s, nil
		}
	}
	return suite{}, fmt.Errorf("unknown suite %q (want %s)", name, suiteNames())
}

// observerOverhead is the sim suite's observer_overhead_pct: the
// enabled-collector ("counters") ns/op overhead over the nil-observer
// baseline ("off") in percent, or nil unless the report has both. The
// observability layer's ≤5% budget applies to the nil-observer path,
// which is the "off" variant itself.
func observerOverhead(vs []variant) *float64 {
	ns := make(map[string]int64, len(vs))
	for _, v := range vs {
		ns[v.Name] = v.NsPerOp
	}
	if ns["off"] == 0 || ns["counters"] == 0 {
		return nil
	}
	pct := 100 * (float64(ns["counters"])/float64(ns["off"]) - 1)
	return &pct
}

// run measures every benchmark of s and writes the report to out:
// "-" is stdout, "" is BENCH_<suite>.json. A failed or empty
// benchmark, or a failed write or close of the output, is an error.
func run(s suite, out string) error {
	benches, err := s.benches()
	if err != nil {
		return err
	}
	rep := report{Workload: s.workload, Command: s.command()}
	for _, bn := range benches {
		failed := false
		r := testing.Benchmark(func(b *testing.B) {
			defer func() { failed = failed || b.Failed() }()
			b.ReportAllocs()
			bn.run(b)
		})
		if failed || r.N == 0 {
			return fmt.Errorf("%s failed or ran zero iterations", bn.Name)
		}
		v := bn.variant
		v.NsPerOp, v.AllocsPerOp, v.BytesPerOp = r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp()
		if v.cycles > 0 {
			v.NsPerCycle = float64(v.NsPerOp) / float64(v.cycles)
		}
		if v.Flows > 0 {
			v.NsPerFlow = float64(v.NsPerOp) / float64(v.Flows)
		}
		rep.Variants = append(rep.Variants, v)
		fmt.Fprintf(os.Stderr, "starbench: %-20s %12d ns/op %8d allocs/op\n", v.Name, v.NsPerOp, v.AllocsPerOp)
	}
	rep.ObserverOverheadPct = observerOverhead(rep.Variants)

	switch out {
	case "-":
		_, err = os.Stdout.Write(render(rep))
		return err
	case "":
		out = "BENCH_" + s.name + ".json"
	}
	// WriteFile reports a short write and a failed close alike, so a
	// truncated file never passes for a finished run.
	return os.WriteFile(out, render(rep), 0o666)
}

// render formats r in the checked-in layout: keys in fixed order,
// one variant per line, per-unit costs at one decimal and the
// observer overhead at two.
func render(r report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"workload\": %q,\n  \"command\": %q,\n", r.Workload, r.Command)
	if r.ObserverOverheadPct != nil {
		fmt.Fprintf(&b, "  \"observer_overhead_pct\": %.2f,\n", *r.ObserverOverheadPct)
	}
	b.WriteString("  \"variants\": [\n")
	for i, v := range r.Variants {
		fmt.Fprintf(&b, "    {\"name\": %q", v.Name)
		if v.Flows != 0 {
			fmt.Fprintf(&b, ", \"flows\": %d, \"channels\": %d, \"iterations\": %d", v.Flows, v.Channels, v.Iterations)
		}
		fmt.Fprintf(&b, ", \"ns_per_op\": %d", v.NsPerOp)
		if v.NsPerCycle != 0 {
			fmt.Fprintf(&b, ", \"ns_per_cycle\": %.1f", v.NsPerCycle)
		}
		if v.NsPerFlow != 0 {
			fmt.Fprintf(&b, ", \"ns_per_flow\": %.1f", v.NsPerFlow)
		}
		fmt.Fprintf(&b, ", \"allocs_per_op\": %d, \"bytes_per_op\": %d}", v.AllocsPerOp, v.BytesPerOp)
		if i < len(r.Variants)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

func main() {
	out := flag.String("out", "", "output path (- for stdout; default BENCH_<suite>.json)")
	name := flag.String("suite", suites[0].name, "benchmark suite: "+suiteNames())
	flag.Parse()

	s, err := lookup(*name)
	if err == nil {
		err = run(s, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "starbench: %v\n", err)
		os.Exit(1)
	}
}
