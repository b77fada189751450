package wire

import (
	"encoding/json"
	"go/build"
	"testing"
)

// TestGoldenBytes pins the JSON encoding of every body and envelope
// byte for byte. The server writes these bytes, caches them and hashes
// requests from them, and the client decodes them: a change here is a
// breaking API change (and, for requests, a cache re-key), not a test
// update.
func TestGoldenBytes(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	topo := TopoSpec{Kind: "torus", N: 3, K: 4, Dim: 2}
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"predict request", PredictRequest{Topo: topo, Routing: "nbc", V: 6, MsgLen: 32, Rate: 0.004},
			`{"topo":{"kind":"torus","n":3,"k":4,"dim":2},"routing":"nbc","v":6,"msg_len":32,"rate":0.004}`},
		{"bounds request", BoundsRequest{Topo: topo, Routing: "nhop", V: 6, MsgLen: 32, Rate: 0.004, BufCap: 2, LinkBW: 1.5},
			`{"topo":{"kind":"torus","n":3,"k":4,"dim":2},"routing":"nhop","v":6,"msg_len":32,"rate":0.004,"buf_cap":2,"link_bw":1.5}`},
		{"simulate request", SimulateRequest{Topo: topo, Routing: "nbc", V: 6, MsgLen: 32, Rate: 0.004, BufCap: 2,
			Seed: 7, Warmup: 100, Measure: 200, Drain: 300, MaxMsgAge: 50},
			`{"topo":{"kind":"torus","n":3,"k":4,"dim":2},"routing":"nbc","v":6,"msg_len":32,"rate":0.004,"buf_cap":2,"seed":7,"warmup":100,"measure":200,"drain":300,"max_msg_age":50}`},
		{"sweep request", SweepRequest{Panel: "b", Points: 6, Seeds: []uint64{1, 2}, Warmup: 10, Measure: 20, Workers: 2},
			`{"panel":"b","points":6,"seeds":[1,2],"warmup":10,"measure":20,"workers":2}`},
		{"empty requests", []any{PredictRequest{}, BoundsRequest{}, SimulateRequest{}, SweepRequest{}},
			`[{"topo":{"kind":""},"v":0,"msg_len":0,"rate":0},{"topo":{"kind":""},"v":0,"msg_len":0,"rate":0},{"topo":{"kind":""},"v":0,"msg_len":0,"rate":0},{"panel":""}]`},
		{"predict result", PredictResult{Saturated: true, LatencyCycles: 65.8, NetLatency: 50.25, SourceWait: 15.5,
			ChannelWait: 3.125, Multiplexing: 1.0625, Utilization: 0.375, MeanBlocking: 0.5, Converged: true},
			`{"saturated":true,"latency_cycles":65.8,"net_latency":50.25,"source_wait":15.5,"channel_wait":3.125,"multiplexing":1.0625,"utilization":0.375,"mean_blocking":0.5,"converged":true}`},
		{"bounds result", BoundsResult{Unboundable: true, WorstBound: 3141.5,
			Classes:     []BoundsClass{{Hops: 1, Flows: 24, Bound: 40.5}, {Hops: 2, Flows: 12, Bound: 80}},
			Utilization: 0.25, HopDelay: 12.5, Residual: 0.75, Feedforward: true, Iterations: 9, Flows: 36, Channels: 72},
			`{"unboundable":true,"worst_bound":3141.5,"classes":[{"hops":1,"flows":24,"bound":40.5},{"hops":2,"flows":12,"bound":80}],"utilization":0.25,"hop_delay":12.5,"residual":0.75,"feedforward":true,"iterations":9,"flows":36,"channels":72}`},
		{"bounds result without classes", BoundsResult{Unboundable: true},
			`{"unboundable":true,"worst_bound":0,"utilization":0,"hop_delay":0,"residual":0,"feedforward":false,"iterations":0,"flows":0,"channels":0}`},
		{"simulate result", SimulateResult{MeanLatency: 75.5, MinLatency: 20, MaxLatency: 410, P50Latency: 70, P95Latency: 150,
			P99Latency: 300, Measured: 1200, Delivered: 1500, AcceptedRate: 0.0079, Cycles: 38000, Saturated: true,
			Aborted: true, AbortReason: "watchdog"},
			`{"mean_latency":75.5,"min_latency":20,"max_latency":410,"p50_latency":70,"p95_latency":150,"p99_latency":300,"measured":1200,"delivered":1500,"accepted_rate":0.0079,"cycles":38000,"saturated":true,"aborted":true,"abort_reason":"watchdog"}`},
		{"sweep result", SweepResult{Title: "Figure 1(a)", XLabel: "rate", Series: []SweepSeries{{Name: "V=6 M=32", V: 6, MsgLen: 32,
			Points: []SweepPoint{
				{Rate: 0.002, Model: f(60.5), Sim: f(61.25), SimHW: 0.5},
				{Rate: 0.004, ModelSaturated: true, SimSaturated: true, Failed: true, Err: "no surviving replication"},
			}}}},
			`{"title":"Figure 1(a)","x_label":"rate","series":[{"name":"V=6 M=32","v":6,"msg_len":32,"points":[{"rate":0.002,"model":60.5,"model_saturated":false,"sim":61.25,"sim_hw":0.5,"sim_saturated":false},{"rate":0.004,"model":null,"model_saturated":true,"sim":null,"sim_hw":0,"sim_saturated":true,"failed":true,"error":"no surviving replication"}]}]}`},
		{"error envelope", ErrorBody{Error: Error{Class: ClassQueueFull, Message: "busy", RetryAfterMS: 1500}},
			`{"error":{"class":"queue_full","message":"busy","retry_after_ms":1500}}`},
		{"error envelope without retry", ErrorBody{Error: Error{Class: ClassInvalidConfig, Message: "bad <topo> & \"v\""}},
			`{"error":{"class":"invalid_config","message":"bad \u003ctopo\u003e \u0026 \"v\""}}`},
		{"job done", Job{ID: "sha256:ab", Status: "done", Result: json.RawMessage(`{"mean_latency":1}`)},
			`{"id":"sha256:ab","status":"done","result":{"mean_latency":1}}`},
		{"job failed", Job{ID: "sha256:ab", Status: "failed", Error: "boom"},
			`{"id":"sha256:ab","status":"failed","error":"boom"}`},
		{"batch request", BatchRequest{Items: []BatchItem{{Kind: "simulate", Config: json.RawMessage(`{"v":4}`)}}},
			`{"items":[{"kind":"simulate","config":{"v":4}}]}`},
		{"batch response", BatchResponse{Items: []BatchItemResult{
			{ID: "sha256:ab", Status: "queued"},
			{Error: &Error{Class: ClassQueueFull, Message: "shed", RetryAfterMS: 3}},
		}}, `{"items":[{"id":"sha256:ab","status":"queued"},{"error":{"class":"queue_full","message":"shed","retry_after_ms":3}}]}`},
		{"health", Health{OK: true}, `{"ok":true}`},
		{"clustered health", Health{OK: true, JournalReadOnly: true,
			Cluster: &Ring{Self: "a:1", Members: []string{"a:1", "b:2"}, VirtualNodes: 64}},
			`{"ok":true,"journal_readonly":true,"cluster":{"self":"a:1","members":["a:1","b:2"],"virtual_nodes":64}}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// TestStdlibOnly keeps the schema dependency-free: every package that
// speaks the wire (the client included) imports it, so it must not
// drag any other package of the module, or anything outside the
// standard library, along.
func TestStdlibOnly(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.GoFiles) == 0 {
		t.Fatal("no non-test files found")
	}
	for _, imp := range pkg.Imports {
		if p, err := build.Import(imp, ".", build.FindOnly); err != nil || !p.Goroot {
			t.Errorf("internal/wire imports %q; it may import only the standard library", imp)
		}
	}
}
