package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SchemaVersion is baked into every content hash. Bump it whenever
// the wire schema of a hashed request changes meaning without
// changing shape (renamed semantics, new defaults), so stale cache
// entries and job ids can never be mistaken for current ones.
const SchemaVersion = "v1"

// CanonicalJSON serialises v into the canonical JSON form used for
// content addressing: the value is marshalled, re-read into a generic
// tree (numbers preserved verbatim via json.Number) and marshalled
// again, which sorts every object's keys and normalises whitespace.
// Two values that encode the same JSON document — regardless of
// struct field order, map layout or intermediate round-trips —
// canonicalise to identical bytes.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jobs: canonicalize: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("jobs: canonicalize: %w", err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("jobs: canonicalize: %w", err)
	}
	return out, nil
}

// Hash returns the content hash of a request: SHA-256 over a domain
// line ("starperf/<version>/<kind>") and the canonical JSON of v,
// rendered as "sha256:<hex>". The kind keeps identically-shaped
// requests of different operations (predict vs simulate) from ever
// colliding, and the embedded schema version invalidates hashes
// across wire-schema revisions.
func Hash(kind string, v any) (string, error) {
	canon, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	return HashCanonical(kind, canon), nil
}

// HashCanonical is Hash over a body already in canonical form, for
// callers that keep that form too (a journal record) and need not
// compute it twice.
func HashCanonical(kind string, canon []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "starperf/%s/%s\n", SchemaVersion, kind)
	h.Write(canon)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
