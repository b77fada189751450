package server

// The header audit's enforcement: the X-Starperf-* contract is
// exactly the set declared in internal/wire/headers.go and documented
// in DESIGN.md. TestStarperfHeaderSet scans the source of every
// package that speaks HTTP (server, cluster ring, public client, soak
// harness, the daemon) so a header literal anywhere but the declaring
// file fails here; TestStarperfHeadersOnTheWire pins the live
// response surface of a compute route.

import (
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"starperf/internal/wire"
)

// canonicalHeaders mirrors the internal/wire header block — change
// both together, along with the DESIGN.md table. The identifier is
// what code references.
var canonicalHeaders = map[string]string{
	"JobHeader":       wire.JobHeader,       // X-Starperf-Job
	"CacheHeader":     wire.CacheHeader,     // X-Starperf-Cache
	"DeadlineHeader":  wire.DeadlineHeader,  // X-Starperf-Deadline
	"NodeHeader":      wire.NodeHeader,      // X-Starperf-Node
	"ForwardedHeader": wire.ForwardedHeader, // X-Starperf-Forwarded
	"ResultSumHeader": wire.ResultSumHeader, // X-Starperf-Result-Sum
}

// headerDecl is the one non-test file that may spell a header out.
var headerDecl = filepath.Join("..", "wire", "headers.go")

// headerDirs are the packages whose non-test sources may speak
// X-Starperf-* headers, relative to this package.
var headerDirs = []string{".", "../wire", "../cluster", "../netx", "../soak", "../../client", "../../cmd/starperfd"}

func TestStarperfHeaderSet(t *testing.T) {
	canon := make(map[string]bool, len(canonicalHeaders))
	for _, h := range canonicalHeaders {
		canon[h] = true
	}
	pat := regexp.MustCompile(`"?X-Starperf-[A-Za-z0-9-]+`)
	used := make(map[string][]string) // header -> files outside headerDecl
	seen := make(map[string]bool)     // every X-Starperf-* spelling found
	for _, dir := range headerDirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range ents {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Every file, the declaring one included, speaks only
			// declared headers; prose elsewhere may name one, code
			// outside the declaring file uses its constant.
			for _, m := range pat.FindAllString(string(src), -1) {
				h := strings.TrimPrefix(m, `"`)
				seen[h] = true
				switch {
				case !canon[h]:
					t.Errorf("%s speaks undeclared header %s — add it to %s, canonicalHeaders and the DESIGN.md table", path, h, headerDecl)
				case m != h && path != headerDecl:
					t.Errorf("%s spells out header %s as a string literal — use its constant from %s", path, h, headerDecl)
				}
			}
			if path == headerDecl {
				continue
			}
			// Code speaks a header through its constant.
			for ident, h := range canonicalHeaders {
				if regexp.MustCompile(`\b` + ident + `\b`).Match(src) {
					used[h] = append(used[h], path)
				}
			}
		}
	}
	// The contract must also stay honest the other way: a declared
	// header nothing speaks any more should be retired, not live on
	// in the docs.
	for _, h := range canonicalHeaders {
		if len(used[h]) == 0 {
			t.Errorf("declared header %s is not spoken by any non-test source — retire it from %s and the DESIGN.md table", h, headerDecl)
		}
	}
	// Casing is part of the contract: exactly one spelling per header.
	lower := make(map[string]string, len(seen))
	for h := range seen {
		if prev, ok := lower[strings.ToLower(h)]; ok && prev != h {
			t.Errorf("inconsistently cased header variants %s and %s", prev, h)
		}
		lower[strings.ToLower(h)] = h
	}
	if t.Failed() {
		var all []string
		for h := range seen {
			all = append(all, h)
		}
		sort.Strings(all)
		t.Logf("headers found in source: %v", all)
	}
}

func TestStarperfHeadersOnTheWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/predict", predictS4)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.JobHeader); got != predictID(t) {
		t.Fatalf("%s = %q, want the job's content hash", wire.JobHeader, got)
	}
	if got := resp.Header.Get(wire.CacheHeader); got != "miss" && got != "hit" {
		t.Fatalf("%s = %q, want hit or miss", wire.CacheHeader, got)
	}
}
