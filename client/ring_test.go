package client

// Ring-aware client behaviour against fake cluster nodes: LearnRing
// bootstraps membership from /healthz, job polls prefer the id's
// owner, and a dead owner makes the poll fall down the successor
// order. The nodes here are hand-rolled handlers, not real servers —
// the point is the client's routing, pinned against addresses known
// before the handlers run (listeners first, job id second).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"starperf/internal/cluster"
)

// fakeNode is one scripted cluster member. jobID is set by the test
// after the addresses (and therefore the ring) are known.
type fakeNode struct {
	addr    string
	ts      *httptest.Server
	jobID   atomic.Value // string
	submits atomic.Int64
	polls   atomic.Int64
}

// newFakeCluster starts n fake members that agree on membership and
// serve: /healthz with the ring, POST /v1/simulate with 202 and the
// scripted job id, GET /v1/jobs/{id} with a done envelope.
func newFakeCluster(t *testing.T, n int) []*fakeNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	members := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		members[i] = l.Addr().String()
	}
	nodes := make([]*fakeNode, n)
	for i, l := range listeners {
		node := &fakeNode{addr: members[i]}
		node.jobID.Store("")
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{
				"ok": true,
				"cluster": map[string]any{
					"self":          node.addr,
					"members":       members,
					"virtual_nodes": 64,
				},
			})
		})
		mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
			node.submits.Add(1)
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"id": node.jobID.Load(), "status": "queued",
			})
		})
		mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			node.polls.Add(1)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"id": r.PathValue("id"), "status": "done", "result": map[string]any{},
			})
		})
		node.ts = &httptest.Server{Listener: l, Config: &http.Server{Handler: mux}}
		node.ts.Start()
		t.Cleanup(node.ts.Close)
		nodes[i] = node
	}
	return nodes
}

// addrs extracts the member list.
func addrs(nodes []*fakeNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.addr
	}
	return out
}

// idOwnedBy finds a job id the given member owns on the ring over
// members, so tests steer placement deterministically.
func idOwnedBy(t *testing.T, members []string, want string) string {
	t.Helper()
	ring, err := cluster.New(cluster.Config{Self: members[0], Peers: members})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("sha256:%064x", i)
		if ring.Successors(id)[0] == want {
			return id
		}
	}
	t.Fatalf("no id owned by %s in 100000 tries", want)
	return ""
}

// TestLearnRingPrefersOwnerForPolls: after LearnRing, the poll for a
// job goes straight to the id's ring owner, not the bootstrap node.
func TestLearnRingPrefersOwnerForPolls(t *testing.T) {
	nodes := newFakeCluster(t, 2)
	bootstrap, owner := nodes[0], nodes[1]
	jobID := idOwnedBy(t, addrs(nodes), owner.addr)
	for _, n := range nodes {
		n.jobID.Store(jobID)
	}

	c, _ := newRecordingClient(t, bootstrap.ts.URL, Config{})
	if err := c.LearnRing(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(context.Background(), SimulateRequest{}); err != nil {
		t.Fatal(err)
	}
	if got := bootstrap.submits.Load(); got != 1 {
		t.Fatalf("bootstrap submits = %d, want 1 (submit goes to the configured node)", got)
	}
	if owner.polls.Load() != 1 || bootstrap.polls.Load() != 0 {
		t.Fatalf("polls: owner=%d bootstrap=%d, want the owner polled, the bootstrap spared",
			owner.polls.Load(), bootstrap.polls.Load())
	}
}

// TestPollFailsOverWhenOwnerDies: a poll whose preferred owner is
// dead advances to the next ring successor instead of failing.
func TestPollFailsOverWhenOwnerDies(t *testing.T) {
	nodes := newFakeCluster(t, 2)
	survivor, owner := nodes[0], nodes[1]
	jobID := idOwnedBy(t, addrs(nodes), owner.addr)
	for _, n := range nodes {
		n.jobID.Store(jobID)
	}

	c, _ := newRecordingClient(t, survivor.ts.URL, Config{})
	if err := c.LearnRing(context.Background()); err != nil {
		t.Fatal(err)
	}
	owner.ts.Close() // the owner dies before the job is polled
	if _, err := c.Simulate(context.Background(), SimulateRequest{}); err != nil {
		t.Fatalf("poll with dead owner: %v", err)
	}
	if got := survivor.polls.Load(); got != 1 {
		t.Fatalf("survivor polls = %d, want the failed-over poll", got)
	}
}

// TestLearnRingNoopOnUnclusteredServer: a plain single-node server
// (no cluster block in /healthz) leaves the client ringless and
// fully functional.
func TestLearnRingNoopOnUnclusteredServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]bool{"ok": true})
	}))
	defer ts.Close()
	c, _ := newRecordingClient(t, ts.URL, Config{})
	if err := c.LearnRing(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.ring != nil {
		t.Fatal("client invented a ring from a ringless healthz")
	}
	if got := c.targets("sha256:anything"); len(got) != 1 || got[0] != c.base {
		t.Fatalf("targets = %v, want just the base URL", got)
	}
}

// TestRetryAfterOverridesJitterCap: an explicit Retry-After is obeyed
// verbatim even when it exceeds MaxBackoff — the cap bounds the
// client's own guessing, never the server's explicit schedule.
func TestRetryAfterOverridesJitterCap(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "9")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"class":"queue_full","message":"busy","retry_after_ms":9000}}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	c, sleeps := newRecordingClient(t, ts.URL, Config{MaxBackoff: 100 * time.Millisecond})
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 9*time.Second {
		t.Fatalf("sleeps = %v, want the server's 9s schedule over the 100ms jitter cap", *sleeps)
	}

	// And without Retry-After, the jitter cap binds.
	calls.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"class":"queue_full","message":"busy"}}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts2.Close()
	c, sleeps = newRecordingClient(t, ts2.URL, Config{MaxBackoff: 100 * time.Millisecond})
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] > 100*time.Millisecond {
		t.Fatalf("sleeps = %v, want one jittered wait within the 100ms cap", *sleeps)
	}
}

// Test429StormGivesUpBeforeDeadline: under a sustained 429 storm
// whose Retry-After exceeds the caller's patience, the client fails
// fast with the deadline error — before the deadline, not by blocking
// out the remaining budget and failing after it.
func Test429StormGivesUpBeforeDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"class":"queue_full","message":"storm","retry_after_ms":5000}}`)
	}))
	defer ts.Close()

	// Real sleeps, real deadline: the early give-up must beat both.
	c, err := New(Config{BaseURL: ts.URL, MaxAttempts: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	patience := 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), patience)
	defer cancel()
	start := time.Now()
	err = c.Health(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("storm error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= patience {
		t.Fatalf("gave up after %v, deadline was %v: the client burned its caller's budget", elapsed, patience)
	}
}
