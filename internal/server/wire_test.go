package server

// Golden tests pinning the v1 error envelope byte-for-byte. These are
// the wire contract: a change that fails them is a breaking API
// change and needs a version bump, not a test update.

import (
	"net/http"
	"strings"
	"testing"
)

// TestErrorEnvelopeGolden pins exact bodies for deterministic error
// paths. reply encodes with a trailing newline.
func TestErrorEnvelopeGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		body   string
	}{
		{
			name: "unknown field",
			do: func() *http.Response {
				return postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"star","n":4},"vee":4}`)
			},
			status: 400,
			body:   `{"error":{"class":"invalid_config","message":"malformed request: json: unknown field \"vee\""}}` + "\n",
		},
		{
			name: "unknown job",
			do: func() *http.Response {
				resp, err := http.Get(ts.URL + "/v1/jobs/sha256:beef")
				if err != nil {
					t.Fatal(err)
				}
				return resp
			},
			status: 404,
			body:   `{"error":{"class":"unreachable","message":"unknown job sha256:beef"}}` + "\n",
		},
		{
			name: "invalid topology",
			do: func() *http.Response {
				return postJSON(t, ts.URL+"/v1/predict", `{"topo":{"kind":"ring","n":4},"v":4,"msg_len":16,"rate":0.004}`)
			},
			status: 400,
			// The message comes from topo validation; assert the stable
			// envelope prefix only.
			body: `{"error":{"class":"invalid_config","message":"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			body := string(readBody(t, resp))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if strings.HasSuffix(tc.body, "\n") {
				if body != tc.body {
					t.Fatalf("body %q, want %q", body, tc.body)
				}
			} else if !strings.HasPrefix(body, tc.body) {
				t.Fatalf("body %q, want prefix %q", body, tc.body)
			}
		})
	}
}

// TestErrorEnvelopeRetryAfterMS: a retryable refusal carries the
// millisecond hint inside the envelope, mirroring the Retry-After
// header.
func TestErrorEnvelopeRetryAfterMS(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.sem = make(chan struct{}, 1)
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	if resp.StatusCode != 503 {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	want := `{"error":{"class":"queue_full","message":"server at concurrency cap","retry_after_ms":1}}` + "\n"
	if body != want {
		t.Fatalf("body %q, want %q", body, want)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
}
