package client_test

// End-to-end tests of the public client against the real serving
// stack, plus the wire-compat pin: the client's typed mirrors must
// marshal byte-identically to the server's request types — same
// canonical JSON, same content hash — or the two halves have drifted.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"starperf/client"
	"starperf/internal/jobs"
	"starperf/internal/server"
)

func newStack(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Cache.Dir == "" {
		cfg.Cache.Dir = t.TempDir()
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	c, err := client.New(client.Config{
		BaseURL: ts.URL, Seed: 7,
		BaseBackoff: 5 * time.Millisecond, PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, c
}

func TestClientPredictEndToEnd(t *testing.T) {
	_, c := newStack(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	req := client.PredictRequest{
		Topo: client.TopoSpec{Kind: "star", N: 4}, V: 4, MsgLen: 16, Rate: 0.004,
	}
	first, err := c.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Saturated || !(first.LatencyCycles > 0) || !first.Converged {
		t.Fatalf("implausible predict result: %+v", first)
	}
	second, err := c.Predict(ctx, req) // cache hit server-side
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("repeat predict differs:\n %+v\n %+v", first, second)
	}
}

func TestClientBoundsEndToEnd(t *testing.T) {
	_, c := newStack(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := client.BoundsRequest{
		Topo: client.TopoSpec{Kind: "star", N: 4}, V: 6, MsgLen: 32, Rate: 0.004,
	}
	first, err := c.PredictBounds(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Unboundable || !(first.WorstBound > 0) || len(first.Classes) == 0 {
		t.Fatalf("implausible bounds result: %+v", first)
	}
	second, err := c.PredictBounds(ctx, req) // cache hit server-side
	if err != nil {
		t.Fatal(err)
	}
	if first.WorstBound != second.WorstBound || len(first.Classes) != len(second.Classes) {
		t.Fatalf("repeat bounds differs:\n %+v\n %+v", first, second)
	}
	// Far past capacity: a typed in-band answer, not an error.
	over, err := c.PredictBounds(ctx, client.BoundsRequest{
		Topo: client.TopoSpec{Kind: "star", N: 4}, V: 6, MsgLen: 32, Rate: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Unboundable {
		t.Fatalf("rate past capacity reported boundable: %+v", over)
	}
}

func TestClientSimulateEndToEnd(t *testing.T) {
	_, c := newStack(t, server.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Simulate(ctx, client.SimulateRequest{
		Topo: client.TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.002, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MeanLatency > 0) || res.Delivered == 0 {
		t.Fatalf("implausible simulate result: %+v", res)
	}
}

// TestClientRetriesThroughOverload: a single-worker pool wedged on a
// blocked job turns the first submission into 429 queue_full; the
// client must back off and land the job once the wedge clears.
func TestClientRetriesThroughOverload(t *testing.T) {
	s, c := newStack(t, server.Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	if _, err := s.Pool().SubmitMeta("sha256:wedge1", jobs.Meta{}, func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to hold the wedge, then fill the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Pool().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedge never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Pool().SubmitMeta("sha256:wedge2", jobs.Meta{}, func(ctx context.Context) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, err := c.Simulate(ctx, client.SimulateRequest{
			Topo: client.TopoSpec{Kind: "star", N: 3}, V: 4, MsgLen: 8, Rate: 0.002, Seed: 9,
		})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let at least one attempt hit the full queue
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("client did not ride out the overload: %v", err)
	}
}

// TestWireCompat pins the mirrors to the server's schema: identical
// canonical JSON and identical content hashes for identical values.
func TestWireCompat(t *testing.T) {
	cp := client.PredictRequest{Topo: client.TopoSpec{Kind: "star", N: 5}, Routing: "nbc", V: 3, MsgLen: 32, Rate: 0.01}
	sp := server.PredictRequest{Topo: server.TopoSpec{Kind: "star", N: 5}, Routing: "nbc", V: 3, MsgLen: 32, Rate: 0.01}
	assertSameWire(t, "predict", cp, sp)

	cb := client.BoundsRequest{Topo: client.TopoSpec{Kind: "hypercube", N: 4}, Routing: "nbc", V: 4, MsgLen: 16, Rate: 0.003, BufCap: 2, LinkBW: 1}
	sb := server.BoundsRequest{Topo: server.TopoSpec{Kind: "hypercube", N: 4}, Routing: "nbc", V: 4, MsgLen: 16, Rate: 0.003, BufCap: 2, LinkBW: 1}
	assertSameWire(t, "bounds", cb, sb)

	cs := client.SimulateRequest{Topo: client.TopoSpec{Kind: "torus", K: 4, Dim: 2}, V: 2, MsgLen: 16, Rate: 0.005, BufCap: 2, Seed: 3, Warmup: 100, Measure: 200, Drain: 300, MaxMsgAge: 50}
	ss := server.SimulateRequest{Topo: server.TopoSpec{Kind: "torus", K: 4, Dim: 2}, V: 2, MsgLen: 16, Rate: 0.005, BufCap: 2, Seed: 3, Warmup: 100, Measure: 200, Drain: 300, MaxMsgAge: 50}
	assertSameWire(t, "simulate", cs, ss)

	cw := client.SweepRequest{Panel: "b", Points: 6, Seeds: []uint64{1, 2}, Warmup: 10, Measure: 20, Workers: 2}
	sw := server.SweepRequest{Panel: "b", Points: 6, Seeds: []uint64{1, 2}, Warmup: 10, Measure: 20, Workers: 2}
	assertSameWire(t, "sweep", cw, sw)
}

func assertSameWire(t *testing.T, kind string, clientReq, serverReq any) {
	t.Helper()
	cb, err := jobs.CanonicalJSON(clientReq)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := jobs.CanonicalJSON(serverReq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, sb) {
		t.Fatalf("%s mirrors drifted:\n client %s\n server %s", kind, cb, sb)
	}
	ch, err := jobs.Hash(kind, clientReq)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := jobs.Hash(kind, serverReq)
	if err != nil {
		t.Fatal(err)
	}
	if ch != sh {
		t.Fatalf("%s content hashes drifted: %s vs %s", kind, ch, sh)
	}
}
