// Package cluster is the static-membership consistent-hash ring
// behind the sharded starperfd deployment: a deterministic mapping
// from content-hash job ids ("sha256:<hex>", internal/jobs.Hash) to
// the cluster member that owns them, plus the failover order every
// other member agrees on.
//
// Determinism is the whole point. Every node (and the public client)
// builds the ring from the same member list and must place every key
// identically, or two nodes would both believe they own a job and the
// cluster would duplicate work it was built to share. The ring
// therefore depends only on its inputs: member addresses and the
// virtual-node count, hashed with SHA-256. No clock, no randomness,
// no map iteration — the same Config yields the same ring on every
// build, every machine, every run.
//
// Correctness under ownership mistakes is inherited from content
// addressing, not from the ring: any replica's recompute of a job id
// is byte-identical (pinned by the serving-layer tests), so a stale
// member list or a mid-failover race costs duplicated work, never a
// wrong answer. That is what makes static membership enough here —
// the ring is a routing optimisation over a cluster that is already
// correct with no routing at all.
//
// Virtual nodes smooth the key distribution: each member is hashed
// onto the ring VirtualNodes times, so the expected load imbalance
// between members shrinks roughly with 1/sqrt(VirtualNodes·members).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"strings"

	"starperf/internal/cfgerr"
)

// DefaultVirtualNodes is the per-member virtual-node count when
// Config leaves it zero: enough to keep the expected imbalance of a
// small static cluster within a few percent, cheap enough that ring
// construction stays microseconds.
const DefaultVirtualNodes = 64

// MaxVirtualNodes bounds the configurable virtual-node count.
const MaxVirtualNodes = 4096

// Config describes a ring. Self is required; Peers lists the other
// members (Self may appear in it too — membership is the deduplicated
// union). Every member of the cluster must be configured with the
// same member set and VirtualNodes, or their rings disagree.
type Config struct {
	// Self is this node's advertised address ("host:port"), the name
	// peers reach it by.
	Self string
	// Peers are the other members' advertised addresses.
	Peers []string
	// VirtualNodes is the per-member point count on the ring
	// (default DefaultVirtualNodes, max MaxVirtualNodes).
	VirtualNodes int
}

// point is one virtual node: a position on the 64-bit ring and the
// member it routes to.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Construct with New;
// safe for concurrent use (it is never mutated after construction).
type Ring struct {
	self         string
	members      []string // sorted, deduplicated, includes self
	virtualNodes int
	points       []point // sorted by hash, ties broken by node
}

// New validates cfg and builds its ring.
func New(cfg Config) (*Ring, error) {
	self := strings.TrimSpace(cfg.Self)
	if self == "" {
		return nil, cfgerr.New("cluster: Self address is required")
	}
	if cfg.VirtualNodes < 0 || cfg.VirtualNodes > MaxVirtualNodes {
		return nil, cfgerr.Errorf("cluster: VirtualNodes %d outside 0..%d", cfg.VirtualNodes, MaxVirtualNodes)
	}
	vn := cfg.VirtualNodes
	if vn == 0 {
		vn = DefaultVirtualNodes
	}
	members := make([]string, 0, len(cfg.Peers)+1)
	members = append(members, self)
	for _, p := range cfg.Peers {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, cfgerr.New("cluster: empty peer address")
		}
		members = append(members, p)
	}
	sort.Strings(members)
	members = dedupeSorted(members)
	r := &Ring{self: self, members: members, virtualNodes: vn}
	r.points = make([]point, 0, len(members)*vn)
	for _, m := range members {
		for i := 0; i < vn; i++ {
			r.points = append(r.points, point{hash: pointHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node // deterministic tie-break
	})
	return r, nil
}

// dedupeSorted removes adjacent duplicates from a sorted slice.
func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// pointHash places virtual node i of member m on the 64-bit ring.
func pointHash(m string, i int) uint64 {
	sum := sha256.Sum256([]byte(m + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash places a job id on the ring.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Self returns this node's advertised address.
func (r *Ring) Self() string { return r.self }

// Members returns the full member list, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// VirtualNodes returns the per-member virtual-node count, which
// clients need to rebuild an identical ring.
func (r *Ring) VirtualNodes() int { return r.virtualNodes }

// start returns the index of the first ring point at or clockwise of
// key's position (wrapping past the top).
func (r *Ring) start(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns every member in key's preference order: the
// owner first, then each further member in the order their virtual
// nodes appear clockwise. This is the failover order — when the owner
// is unreachable the job falls to Successors(key)[1], and so on; all
// members agree on it, so two nodes failing over the same job
// converge on the same substitute.
func (r *Ring) Successors(key string) []string {
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, n := r.start(key), 0; n < len(r.points); i, n = (i+1)%len(r.points), n+1 {
		node := r.points[i].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
			if len(out) == len(r.members) {
				break
			}
		}
	}
	return out
}
