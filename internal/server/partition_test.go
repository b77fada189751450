package server

// The partition chaos drill (PR 12), in-process: a 3-node ring on a
// netx fabric is split into a minority and a majority side. Both
// sides must keep serving byte-identical answers through the
// local-compute floor; a job acknowledged by the minority side during
// the split must survive the heal and be servable from the other
// side; and a fabric that corrupts peer responses must see every
// damaged copy rejected by checksum, never relayed. The drill runs
// over several seeds — the invariants hold under any fault schedule,
// not one lucky draw.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"starperf/internal/netx"
	"starperf/internal/wire"
)

// partitionSeeds is the fixed seed set the drill (and CI's
// partition-smoke job) runs under.
var partitionSeeds = []uint64{1, 2, 3, 4, 5}

// newPartitionCluster builds a 3-node cluster whose peer traffic
// crosses the given netx fabric. Client traffic (the test itself)
// does not: the drill observes what the cluster serves while its
// internal network misbehaves.
func newPartitionCluster(t *testing.T, fabric *netx.Net) *testCluster {
	t.Helper()
	return newTestCluster(t, 3, func(addr string, cfg *Config) {
		cfg.PeerHTTP = fabric.Client(addr, nil)
		// A short cooldown so post-heal reconvergence is observable
		// within the test budget; the breaker semantics are unchanged.
		cfg.PeerBreaker = BreakerConfig{Cooldown: 50 * time.Millisecond}
	})
}

// pollJobAcross polls GET /v1/jobs/{id} on base until it reports done
// with a result, retrying through transient refusals (breaker
// cooldowns right after a heal).
func pollJobAcross(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode == http.StatusOK {
			var jb wire.Job
			if err := json.Unmarshal(body, &jb); err != nil {
				t.Fatal(err)
			}
			if jb.Status == "done" && jb.Result != nil {
				return jb.Result
			}
			if jb.Status == "failed" {
				t.Fatalf("job %s failed: %s", id, jb.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not served from %s: %d %s", id, base, resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestPartitionDrillBothSidesServeAndReconverge(t *testing.T) {
	wantPredict := controlPredict(t)
	wantSim := controlSimulate(t)
	for _, seed := range partitionSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fabric := netx.New(netx.Plan{Seed: seed})
			tc := newPartitionCluster(t, fabric)
			minority, majority := tc.addrs[0], tc.addrs[1:]

			// Healthy warm-up: every node answers the control bytes.
			for _, addr := range tc.addrs {
				resp := postJSON(t, tc.url(addr)+"/v1/predict", predictS4)
				if body := readBody(t, resp); resp.StatusCode != http.StatusOK || string(body) != string(wantPredict) {
					t.Fatalf("healthy predict via %s: %d %s", addr, resp.StatusCode, body)
				}
			}

			// Split {minority} | {majority}: peer traffic across the cut
			// is severed both ways.
			fabric.SetPartitions([]netx.Partition{{A: []string{minority}, B: majority}})

			// Both sides keep serving predict byte-identically — the
			// forward path fails over and lands on the local-compute
			// floor when the owner is across the cut.
			for _, addr := range tc.addrs {
				resp := postJSON(t, tc.url(addr)+"/v1/predict", predictS4)
				if body := readBody(t, resp); resp.StatusCode != http.StatusOK || string(body) != string(wantPredict) {
					t.Fatalf("partitioned predict via %s: %d %s", addr, resp.StatusCode, body)
				}
			}

			// The minority side acknowledges an async job during the
			// split and serves it locally.
			resp := postJSON(t, tc.url(minority)+"/v1/simulate", recoverySim)
			var jb wire.Job
			if err := json.Unmarshal(readBody(t, resp), &jb); err != nil {
				t.Fatal(err)
			}
			if jb.ID == "" {
				t.Fatalf("minority submit returned no id (status %d)", resp.StatusCode)
			}
			if got := pollJobAcross(t, tc.url(minority), jb.ID); string(got) != string(wantSim) {
				t.Fatalf("minority-side result drifted from control:\n %s\n %s", got, wantSim)
			}

			// The cut really severed traffic (sanity on the fabric).
			if st := fabric.Stats(); st.Partitioned == 0 {
				t.Fatal("no peer request was ever severed — the drill did not exercise the partition")
			}

			// Heal. The acknowledged job must now be servable from the
			// other side of the healed cut (peer fill), byte-identical.
			fabric.Heal()
			if got := pollJobAcross(t, tc.url(majority[0]), jb.ID); string(got) != string(wantSim) {
				t.Fatalf("post-heal result drifted from control:\n %s\n %s", got, wantSim)
			}

			// And the ring routes normally again.
			for _, addr := range tc.addrs {
				resp := postJSON(t, tc.url(addr)+"/v1/predict", predictS4)
				if body := readBody(t, resp); resp.StatusCode != http.StatusOK || string(body) != string(wantPredict) {
					t.Fatalf("post-heal predict via %s: %d %s", addr, resp.StatusCode, body)
				}
			}
		})
	}
}

// TestPartitionDrillCorruptPeerFillsRejected: a fabric that flips a
// byte in every peer response body must never get those bytes served.
// Forwarded compute answers fail their checksum, are counted, and the
// receiving node falls to its local-compute floor — the client still
// sees the control bytes.
func TestPartitionDrillCorruptPeerFillsRejected(t *testing.T) {
	wantPredict := controlPredict(t)
	for _, seed := range partitionSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fabric := netx.New(netx.Plan{Seed: seed, Default: netx.Rule{PCorrupt: 1}})
			tc := newPartitionCluster(t, fabric)

			// Find a node that does not own the predict id, so its
			// request must cross the corrupting fabric.
			order := tc.order(predictID(t))
			nonOwner := order[1]

			resp := postJSON(t, tc.url(nonOwner)+"/v1/predict", predictS4)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK || string(body) != string(wantPredict) {
				t.Fatalf("predict via non-owner on corrupt fabric: %d %s", resp.StatusCode, body)
			}

			var corrupt uint64
			for _, addr := range tc.addrs {
				corrupt += tc.srvs[addr].cluster.peerFillCorrupt.Load()
			}
			if corrupt == 0 {
				t.Fatal("no corrupted peer response was detected — checksum verification did not fire")
			}
			if st := fabric.Stats(); st.Corrupted == 0 {
				t.Fatal("fabric never corrupted a body — the drill did not exercise corruption")
			}
		})
	}
}
