package wire

import (
	"crypto/sha256"
	"encoding/hex"
)

// The X-Starperf-* header contract. Every custom header the server,
// the public client and the soak harness speak is declared in this
// one block and documented in DESIGN.md's header table; the
// TestStarperfHeaderSet source scan fails when an X-Starperf-*
// literal appears anywhere else.
const (
	// JobHeader names the content-hash job id a submission resolved
	// to, on every 200/202 from a compute route.
	JobHeader = "X-Starperf-Job"
	// CacheHeader reports whether the response bytes came from the
	// result cache ("hit"), a peer's cache ("peer") or fresh
	// computation ("miss").
	CacheHeader = "X-Starperf-Cache"
	// DeadlineHeader states a caller's patience as a Go duration; a
	// context/transport deadline on the request, when present, wins.
	// Admission sheds requests whose estimated queue wait exceeds it.
	DeadlineHeader = "X-Starperf-Deadline"
	// NodeHeader names the cluster node that actually served a
	// response.
	NodeHeader = "X-Starperf-Node"
	// ForwardedHeader marks a peer-relayed request (value: the
	// forwarding node's address). Receivers serve it locally, so
	// forwarding depth is structurally one.
	ForwardedHeader = "X-Starperf-Forwarded"
	// ResultSumHeader carries ResultSum of a returned result body, so
	// every reader can verify the bytes it received are the bytes the
	// owner stored.
	ResultSumHeader = "X-Starperf-Result-Sum"
)

// ResultSum renders the content sum of a result body in the
// "sha256:<hex>" shape job ids use.
func ResultSum(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}
