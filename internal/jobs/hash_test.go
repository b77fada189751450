package jobs

import (
	"strings"
	"testing"
)

// TestCanonicalJSONOrderIndependent: two maps with the same entries
// in different insertion orders canonicalise identically, and a
// struct canonicalises to the same bytes as the equivalent map.
func TestCanonicalJSONOrderIndependent(t *testing.T) {
	type req struct {
		B float64 `json:"b"`
		A int     `json:"a"`
	}
	m1 := map[string]any{"a": 3, "b": 0.25}
	m2 := map[string]any{"b": 0.25, "a": 3}
	c1, err := CanonicalJSON(m1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalJSON(m2)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := CanonicalJSON(req{B: 0.25, A: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Fatalf("map order changed canonical form: %s vs %s", c1, c2)
	}
	if string(c1) != string(cs) {
		t.Fatalf("struct and map canonical forms differ: %s vs %s", cs, c1)
	}
	if want := `{"a":3,"b":0.25}`; string(c1) != want {
		t.Fatalf("canonical form = %s, want %s", c1, want)
	}
}

// TestCanonicalJSONPreservesNumbers: float formatting survives the
// round trip verbatim (json.Number), so 0.1 never becomes
// 0.1000000000000000055...
func TestCanonicalJSONPreservesNumbers(t *testing.T) {
	c, err := CanonicalJSON(map[string]any{"rate": 0.015, "big": uint64(1 << 62)})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"big":4611686018427387904,"rate":0.015}`
	if string(c) != want {
		t.Fatalf("canonical form = %s, want %s", c, want)
	}
}

// TestHashShapeAndDomainSeparation: hashes carry the sha256: prefix,
// and the same payload under different kinds (or a different value
// under the same kind) hashes differently.
func TestHashShapeAndDomainSeparation(t *testing.T) {
	payload := map[string]any{"v": 6}
	h1, err := Hash("predict", payload)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash("simulate", payload)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := Hash("predict", map[string]any{"v": 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{h1, h2, h3} {
		if !strings.HasPrefix(h, "sha256:") || len(h) != len("sha256:")+64 {
			t.Fatalf("malformed hash %q", h)
		}
	}
	if h1 == h2 {
		t.Fatalf("kinds predict/simulate collided: %s", h1)
	}
	if h1 == h3 {
		t.Fatalf("different payloads collided under predict: %s", h1)
	}
}

// TestHashGolden pins the canonical hash of a fixed payload: any
// accidental change to the canonicalisation, the domain line or the
// schema version shows up as a cache-key drift failure here before it
// silently invalidates every deployed cache.
func TestHashGolden(t *testing.T) {
	h, err := Hash("predict", map[string]any{"a": 3, "b": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:c234a6e90c1ccd04ff592845093409889d187091c8ef2b9ded6ce053876c6e2e"
	if h != want {
		t.Fatalf("golden hash drifted:\n got  %s\n want %s", h, want)
	}
}

// TestHashRejectsUnencodable: values JSON cannot represent surface as
// errors instead of colliding on a partial form.
func TestHashRejectsUnencodable(t *testing.T) {
	if _, err := Hash("predict", map[string]any{"f": func() {}}); err == nil {
		t.Fatal("expected error hashing a func value")
	}
}

// TestHashCanonicalMatchesHash: hashing a stored canonical body gives
// the id Hash gives the value it came from.
func TestHashCanonicalMatchesHash(t *testing.T) {
	v := map[string]any{"b": 0.25, "a": 3}
	canon, err := CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Hash("predict", v)
	if err != nil {
		t.Fatal(err)
	}
	if got := HashCanonical("predict", canon); got != h {
		t.Fatalf("HashCanonical = %s, Hash = %s", got, h)
	}
}
