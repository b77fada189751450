package cluster

import (
	"errors"
	"fmt"
	"testing"

	"starperf/internal/cfgerr"
)

// testKeys returns n distinct sha256-shaped job ids.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064x", i)
	}
	return keys
}

func mustRing(t *testing.T, cfg Config) *Ring {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingAgreesAcrossMembers pins the property the cluster stands
// on: every member, given the same membership (however spelled),
// places every key identically.
func TestRingAgreesAcrossMembers(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	rings := []*Ring{
		mustRing(t, Config{Self: "a:1", Peers: []string{"b:2", "c:3"}}),
		mustRing(t, Config{Self: "b:2", Peers: []string{"c:3", "a:1"}}),
		mustRing(t, Config{Self: "c:3", Peers: []string{"a:1", "b:2", "c:3"}}), // self in peers too
	}
	for _, r := range rings {
		if got := r.Members(); len(got) != len(members) {
			t.Fatalf("members = %v, want %v", got, members)
		}
	}
	for _, key := range testKeys(256) {
		owner := rings[0].Successors(key)[0]
		order := fmt.Sprint(rings[0].Successors(key))
		for _, r := range rings {
			if got := r.Successors(key)[0]; got != owner {
				t.Fatalf("ring of %s owns %s to %s, ring of %s to %s",
					rings[0].Self(), key, owner, r.Self(), got)
			}
			if fmt.Sprint(r.Successors(key)) != order {
				t.Fatalf("successor order diverged for %s", key)
			}
		}
	}
}

// TestSuccessorsCoverAllMembersOwnerFirst checks the failover order's
// shape: owner first, every member exactly once.
func TestSuccessorsCoverAllMembersOwnerFirst(t *testing.T) {
	r := mustRing(t, Config{Self: "a:1", Peers: []string{"b:2", "c:3", "d:4"}})
	for _, key := range testKeys(64) {
		succ := r.Successors(key)
		if len(succ) != r.Size() {
			t.Fatalf("successors %v do not cover the %d members", succ, r.Size())
		}
		// The owner is the node of the first virtual node clockwise
		// of the key's hash.
		if owner := r.points[r.start(key)].node; succ[0] != owner {
			t.Fatalf("successors %v do not start with owner %s", succ, owner)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("successors %v repeat %s", succ, s)
			}
			seen[s] = true
		}
	}
}

// TestRingBalance checks virtual nodes spread keys: no member of a
// 3-node ring owns less than half or more than double its fair share.
func TestRingBalance(t *testing.T) {
	r := mustRing(t, Config{Self: "a:1", Peers: []string{"b:2", "c:3"}})
	counts := map[string]int{}
	keys := testKeys(3000)
	for _, key := range keys {
		counts[r.Successors(key)[0]]++
	}
	fair := len(keys) / r.Size()
	for _, m := range r.Members() {
		if counts[m] < fair/2 || counts[m] > fair*2 {
			t.Fatalf("member %s owns %d of %d keys (fair share %d): ring is unbalanced",
				m, counts[m], len(keys), fair)
		}
	}
}

// TestRingConsistency pins the "consistent" in consistent hashing:
// removing one member only remaps the keys that member owned.
func TestRingConsistency(t *testing.T) {
	full := mustRing(t, Config{Self: "a:1", Peers: []string{"b:2", "c:3", "d:4"}})
	without := mustRing(t, Config{Self: "a:1", Peers: []string{"b:2", "c:3"}})
	for _, key := range testKeys(512) {
		was := full.Successors(key)[0]
		now := without.Successors(key)[0]
		if was != "d:4" && now != was {
			t.Fatalf("key %s moved %s → %s though its owner never left", key, was, now)
		}
		if was == "d:4" && now != full.Successors(key)[1] {
			t.Fatalf("orphaned key %s went to %s, want the old ring's first successor %s",
				key, now, full.Successors(key)[1])
		}
	}
}

// TestSingleNodeRing: a peerless ring owns everything itself.
func TestSingleNodeRing(t *testing.T) {
	r := mustRing(t, Config{Self: "a:1"})
	for _, key := range testKeys(16) {
		if r.Successors(key)[0] != r.Self() {
			t.Fatalf("single-node ring does not own %s", key)
		}
		if succ := r.Successors(key); len(succ) != 1 || succ[0] != "a:1" {
			t.Fatalf("successors = %v", succ)
		}
	}
}

func TestRingConfigErrors(t *testing.T) {
	cases := []Config{
		{},                                 // no self
		{Self: "  "},                       // blank self
		{Self: "a:1", Peers: []string{""}}, // blank peer
		{Self: "a:1", VirtualNodes: -1},    // negative vnodes
		{Self: "a:1", VirtualNodes: MaxVirtualNodes + 1}, // over cap
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, cfgerr.ErrInvalid) {
			t.Errorf("case %d: err = %v, want cfgerr.ErrInvalid", i, err)
		}
	}
}

func TestVirtualNodesDefaultAndOverride(t *testing.T) {
	r := mustRing(t, Config{Self: "a:1"})
	if r.VirtualNodes() != DefaultVirtualNodes {
		t.Fatalf("default vnodes = %d", r.VirtualNodes())
	}
	r = mustRing(t, Config{Self: "a:1", VirtualNodes: 7})
	if r.VirtualNodes() != 7 || len(r.points) != 7 {
		t.Fatalf("vnodes = %d, points = %d, want 7", r.VirtualNodes(), len(r.points))
	}
}
