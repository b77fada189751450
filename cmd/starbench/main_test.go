package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeReport strict-decodes one report: unknown fields and
// trailing data are errors.
func decodeReport(t *testing.T, data []byte) report {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing data after the report: %v", err)
	}
	return r
}

// TestCheckedInReportsRoundTrip is the writer's oracle: every
// checked-in BENCH_<suite>.json decodes into the one record type,
// renders back byte for byte, and lists exactly the variants its
// suite's constructor returns, in order. No benchmark runs.
func TestCheckedInReportsRoundTrip(t *testing.T) {
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join("..", "..", "BENCH_"+s.name+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r := decodeReport(t, data)
			if got := render(r); !bytes.Equal(got, data) {
				t.Fatalf("render differs from %s:\n got: %s\nwant: %s", path, got, data)
			}
			if r.Workload != s.workload || r.Command != s.command() {
				t.Errorf("header = %q / %q, want %q / %q", r.Workload, r.Command, s.workload, s.command())
			}

			benches, err := s.benches()
			if err != nil {
				t.Fatal(err)
			}
			var want, got []string
			for _, bn := range benches {
				want = append(want, bn.Name)
			}
			for _, v := range r.Variants {
				got = append(got, v.Name)
				if v.Flows > 0 && fmt.Sprintf("%.1f", float64(v.NsPerOp)/float64(v.Flows)) != fmt.Sprintf("%.1f", v.NsPerFlow) {
					t.Errorf("%s: ns_per_flow %.1f is not ns_per_op/flows", v.Name, v.NsPerFlow)
				}
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("variants = %v, constructor returns %v", got, want)
			}

			pct := observerOverhead(r.Variants)
			if (pct == nil) != (r.ObserverOverheadPct == nil) ||
				pct != nil && fmt.Sprintf("%.2f", *pct) != fmt.Sprintf("%.2f", *r.ObserverOverheadPct) {
				t.Errorf("observer_overhead_pct is not recomputed from the off and counters rows")
			}
		})
	}
}

func TestUnknownSuiteNamesEverySuite(t *testing.T) {
	_, err := lookup("nope")
	if err == nil {
		t.Fatal("lookup(nope) succeeded")
	}
	for _, name := range []string{`"nope"`, "sim", "serve", "journal", "bounds"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if s, err := lookup("bounds"); err != nil || s.name != "bounds" {
		t.Errorf("lookup(bounds) = %q, %v", s.name, err)
	}
}

// fakeSuite is a suite of cheap benchmarks, each run for the
// one-iteration probe and then for two iterations.
func fakeSuite(t *testing.T, benches ...bench) suite {
	t.Helper()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "2x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", prev) })
	return suite{"fake", "fake workload", func() ([]bench, error) { return benches, nil }}
}

func noop(b *testing.B) {}

func TestRunWritesOneReport(t *testing.T) {
	s := fakeSuite(t, bench{variant{Name: "a"}, noop}, bench{variant{Name: "b", Flows: 2, Channels: 1, Iterations: 1}, noop})
	out := filepath.Join(t.TempDir(), "fake.json")
	if err := run(s, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	r := decodeReport(t, data)
	if r.Command != "go run ./cmd/starbench -suite fake -out BENCH_fake.json" || len(r.Variants) != 2 ||
		r.Variants[0].Name != "a" || r.Variants[1].Flows != 2 || r.ObserverOverheadPct != nil {
		t.Fatalf("report = %s", data)
	}
}

func TestRunFailsOnFailedBenchmark(t *testing.T) {
	for name, fn := range map[string]func(*testing.B){
		"fatal": func(b *testing.B) { b.Fatal("boom") },
		"error": func(b *testing.B) { b.Error("boom") },
		// Fails only after the probe, so the result still counts N=2.
		"late": func(b *testing.B) {
			if b.N > 1 {
				b.Error("boom")
			}
		},
	} {
		s := fakeSuite(t, bench{variant{Name: name}, fn})
		if err := run(s, filepath.Join(t.TempDir(), "fake.json")); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: run error = %v, want one naming the benchmark", name, err)
		}
	}
}

// TestRunReportsFailedWrite: a write that fails (here, a full
// device) is an error, never a silently truncated report.
func TestRunReportsFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	s := fakeSuite(t, bench{variant{Name: "a"}, noop})
	if err := run(s, "/dev/full"); err == nil {
		t.Fatal("run wrote to a full device without error")
	}
}
