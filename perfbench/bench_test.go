package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starperf/client"
	"starperf/internal/server"
	"starperf/internal/traffic"
)

// benchmarkFile mirrors the metric lists of ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and
// metrics the command emits.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestTinyWorkloads runs a tiny version of every workload, untraced
// and traced, and requires a correct result line carrying every metric
// with its unit.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "5", "--trace", trace,
					"--root", t.TempDir()}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v\n%s", lines[len(lines)-1], err, stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d\n%s", code, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
					if !strings.Contains(stderr.String(), d.name) {
						t.Errorf("metric %s not printed for people", d.name)
					}
				}
				if trace == "0" {
					for _, d := range tails {
						if !strings.Contains(stderr.String(), d.name) {
							t.Errorf("tail figure %s not printed for people", d.name)
						}
					}
				}
			})
		}
	}
}

// served returns the verified result body a node gives req.
func served(t *testing.T, e *env, req any) []byte {
	t.Helper()
	var cap capture
	ctx := withCapture(context.Background(), &cap)
	c := e.clients[0]
	var err error
	switch r := req.(type) {
	case server.PredictRequest:
		_, err = c.Predict(ctx, clientPredict(r))
	case server.BoundsRequest:
		_, err = c.PredictBounds(ctx, clientBounds(r))
	case server.SimulateRequest:
		_, err = c.Simulate(ctx, clientSimulate(r))
	}
	if err != nil {
		t.Fatal(err)
	}
	return cap.ex[len(cap.ex)-1].result
}

// TestCorruptedReferenceFails checks the reference comparison both
// ways: a served result matches a direct evaluation of its request,
// and a deliberately corrupted reference makes the check fail.
func TestCorruptedReferenceFails(t *testing.T) {
	ck := &checks{}
	rec := newRecorder(time.Now(), ck)
	e, err := startEnv(context.Background(), 1, false, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	rng := traffic.NewRNG(3)
	hot, err := hotSet(rng)
	if err != nil {
		t.Fatal(err)
	}
	stream := &syncStream{rng: rng, hot: hot, nodes: 1}
	var predict, bounds syncOp
	for predict.kind == "" || bounds.kind == "" {
		switch op := stream.next(); op.kind {
		case "predict":
			predict = op
		case "bounds":
			bounds = op
		}
	}
	sim := (&jobStream{rng: rng}).next().items[0]

	corrupt := map[string]func(any){
		"predict":  func(ref any) { ref.(*client.PredictResult).LatencyCycles += 1e-9 },
		"bounds":   func(ref any) { ref.(*client.BoundsResult).WorstBound *= 1.0000001 },
		"simulate": func(ref any) { ref.(*client.SimulateResult).Delivered++ },
	}
	for kind, req := range map[string]any{"predict": predict.predict, "bounds": bounds.bounds, "simulate": sim} {
		body := served(t, e, req)
		if len(body) == 0 {
			t.Fatalf("%s: no result body captured", kind)
		}
		ref, err := reference(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareResult(body, ref); err != nil {
			t.Errorf("%s: intact reference rejected: %v", kind, err)
		}
		corrupt[kind](ref)
		if err := compareResult(body, ref); err == nil {
			t.Errorf("%s: corrupted reference accepted", kind)
		}
	}
	if n := ck.count(); n != 0 {
		t.Errorf("recorder reported %d failures on intact traffic: %v", n, ck.messages())
	}
}

func contentSum(b []byte) string {
	s := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(s[:])
}

// TestRecorderCatchesBadBodies checks that a body not matching its
// advertised sum, and a content id answered with two different bodies,
// are correctness failures.
func TestRecorderCatchesBadBodies(t *testing.T) {
	body := []byte(`{"saturated":false,"latency_cycles":1}`)
	other := []byte(`{"saturated":false,"latency_cycles":2}`)
	type answer struct {
		body []byte
		sum  string
	}
	var next atomic.Value // answer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := next.Load().(answer)
		w.Header().Set(jobHeader, "sha256:x")
		w.Header().Set(sumHeader, a.sum)
		_, _ = w.Write(a.body)
	}))
	defer srv.Close()

	ck := &checks{}
	rec := newRecorder(time.Now(), ck)
	hc := &http.Client{Transport: rec.wrap(http.DefaultTransport)}
	post := func(a answer) {
		next.Store(a)
		resp, err := hc.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	post(answer{body, contentSum(other)})
	if ck.count() != 1 {
		t.Fatalf("sum mismatch: %d failures, want 1", ck.count())
	}
	post(answer{body, contentSum(body)})
	post(answer{other, contentSum(other)})
	if ck.count() != 2 {
		t.Fatalf("two bodies for one id: %d failures, want 2: %v", ck.count(), ck.messages())
	}

	// A "done" poll may omit the result (the client polls again); it is
	// counted, not failed.
	next.Store(answer{[]byte(`{"id":"sha256:x","status":"done"}`), ""})
	resp, err := hc.Get(srv.URL + "/v1/jobs/sha256:x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ck.count() != 2 || rec.resultless.Load() != 1 {
		t.Fatalf("result-less done poll: %d failures (want 2), %d counted (want 1)", ck.count(), rec.resultless.Load())
	}
}
