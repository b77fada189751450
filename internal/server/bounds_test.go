package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"starperf/internal/bounds"
	"starperf/internal/cfgerr"
	"starperf/internal/wire"
)

const boundsS4 = `{"topo":{"kind":"star","n":4},"v":6,"msg_len":32,"rate":0.004}`

// TestBoundsEndToEnd drives the synchronous /v1/bounds path: a cold
// request (miss), the identical request again (hit, byte-identical),
// an unboundable operating point as a valid 200 body, and the wire
// error contract for invalid configs.
func TestBoundsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	first := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("bounds: %d %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Starperf-Cache"); got != "miss" {
		t.Fatalf("cold bounds cache header %q, want miss", got)
	}
	id := resp.Header.Get("X-Starperf-Job")
	if !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("job header %q not a content hash", id)
	}
	var res wire.BoundsResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Unboundable || !(res.WorstBound > 0) || len(res.Classes) == 0 {
		t.Fatalf("implausible bounds result: %+v", res)
	}
	if res.Classes[len(res.Classes)-1].Bound != res.WorstBound {
		t.Fatalf("worst bound %v != deepest class %v", res.WorstBound, res.Classes)
	}

	// Identical request → cache hit, byte-identical body, same id.
	resp = postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	second := readBody(t, resp)
	if got := resp.Header.Get("X-Starperf-Cache"); got != "hit" {
		t.Fatalf("warm bounds cache header %q, want hit", got)
	}
	if resp.Header.Get("X-Starperf-Job") != id {
		t.Fatal("same request produced a different job id")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n %s\n %s", first, second)
	}

	// An unboundable operating point is a valid 200, not an error —
	// mirroring /v1/predict's saturated:true.
	resp = postJSON(t, ts.URL+"/v1/bounds",
		`{"topo":{"kind":"star","n":4},"v":6,"msg_len":32,"rate":0.03}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("unboundable point: %d %s", resp.StatusCode, body)
	}
	var ub wire.BoundsResult
	if err := json.Unmarshal(body, &ub); err != nil {
		t.Fatal(err)
	}
	if !ub.Unboundable || ub.WorstBound != 0 {
		t.Fatalf("unboundable point: %+v, want unboundable:true with zero bound", ub)
	}

	// Invalid configs are 400 invalid_config; typos are strict-decode
	// 400s.
	resp = postJSON(t, ts.URL+"/v1/bounds",
		`{"topo":{"kind":"ring","n":4},"v":6,"msg_len":32,"rate":0.004}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("bad topology: %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, ts.URL+"/v1/bounds", `{"topo":{"kind":"star","n":4},"vee":6}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
}

// TestBoundsGoldenWire pins /v1/bounds's canonical job hash and the
// defaults-normalisation invariant: explicit defaults must not mint a
// different job than omitted ones. A changed hash here is a
// cache-compatibility break — bump jobs.SchemaVersion instead.
func TestBoundsGoldenWire(t *testing.T) {
	h := boundsID(t)
	const want = "sha256:53e5779ad55c0ee2b7a6fa10227ae1c1a6789175dbff3130dd6851e08e3089e9"
	if h != want {
		t.Errorf("bounds hash = %q, want %q", h, want)
	}
	explicit := BoundsRequest{
		Topo: TopoSpec{Kind: "star", N: 4}, Routing: "enbc",
		V: 6, MsgLen: 32, Rate: 0.004, BufCap: 2, LinkBW: 1,
	}
	if he := jobID(t, "bounds", explicit); he != h {
		t.Fatalf("explicit defaults hash %q != omitted defaults %q", he, h)
	}
}

// TestBoundsParseRefusesPastNodeCap: /v1/bounds parse refuses what
// its run refuses. Every topology kind parses at the engine's node cap
// and is refused, as an invalid config, just past it. The refusal
// comes from the closed-form size, so no row allocates 1 MB; an S9
// body cost 88 MB when parse built the graph and left the cap to the
// run, and a mesh of huge dimension once sized a table by it before
// any size check. Only parse runs here: none of these bounds is evaluated.
func TestBoundsParseRefusesPastNodeCap(t *testing.T) {
	const limit = 1 << 20
	for _, c := range []struct {
		topo  string
		nodes int
	}{
		{`{"kind":"star","n":6}`, 720},
		{`{"kind":"star","n":7}`, 5040},
		{`{"kind":"star","n":9}`, 362880},
		{`{"kind":"hypercube","n":10}`, 1024},
		{`{"kind":"hypercube","n":11}`, 2048},
		{`{"kind":"torus","k":32,"dim":2}`, 1024},
		{`{"kind":"torus","k":34,"dim":2}`, 1156},
		{`{"kind":"mesh","k":32,"dim":2}`, 1024},
		{`{"kind":"mesh","k":33,"dim":2}`, 1089},
		{`{"kind":"mesh","k":2,"dim":2147483648}`, math.MaxInt}, // 2^(2^31): sized by dim, not by nodes
		{`{"kind":"torus","k":2,"dim":2147483648}`, math.MaxInt},
	} {
		body := fmt.Sprintf(`{"topo":%s,"v":40,"msg_len":32,"rate":0.001}`, c.topo)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseKind("bounds", []byte(body))
		runtime.ReadMemStats(&after)
		switch {
		case c.nodes <= bounds.MaxNodes && err != nil:
			t.Errorf("%s (%d nodes, cap %d): %v", c.topo, c.nodes, bounds.MaxNodes, err)
		case c.nodes > bounds.MaxNodes && !errors.Is(err, cfgerr.ErrInvalid):
			t.Errorf("%s (%d nodes, cap %d): err %v, want an invalid-config refusal", c.topo, c.nodes, bounds.MaxNodes, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: parse allocated %d bytes, want < %d", c.topo, got, limit)
		}
	}
}

// controlBounds computes boundsS4 on a pristine single-node server:
// the byte-identical reference every cluster answer must match.
func controlBounds(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control bounds: %d", resp.StatusCode)
	}
	return readBody(t, resp)
}

// boundsID hashes boundsS4 the way the handler does.
func boundsID(t *testing.T) string {
	t.Helper()
	return jobID(t, "bounds", json.RawMessage(boundsS4))
}

// TestClusterBoundsForwardRelayVerbatim: a /v1/bounds request sent to
// a non-owner is relayed to the ring owner and the relayed body is
// byte-identical to a single-node control — the forward path never
// re-encodes the result.
func TestClusterBoundsForwardRelayVerbatim(t *testing.T) {
	want := controlBounds(t)
	tc := newTestCluster(t, 3, nil)
	order := tc.order(boundsID(t))
	owner, nonOwner := order[0], order[1]

	resp := postJSON(t, tc.url(nonOwner)+"/v1/bounds", boundsS4)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded bounds: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("forwarded result differs from control:\n %s\n %s", body, want)
	}
	if got := resp.Header.Get(wire.NodeHeader); got != owner {
		t.Fatalf("served by %q, want owner %q", got, owner)
	}
	if got := tc.srvs[nonOwner].cluster.forwarded.Load(); got != 1 {
		t.Fatalf("non-owner forwarded counter = %d, want 1", got)
	}

	// The cached result now lives on the owner; the same request via
	// the non-owner again is still byte-identical (relayed hit).
	resp = postJSON(t, tc.url(nonOwner)+"/v1/bounds", boundsS4)
	body = readBody(t, resp)
	if !bytes.Equal(body, want) {
		t.Fatalf("relayed hit differs from control:\n %s\n %s", body, want)
	}
}
