package server

// The registry's round-trip oracle: every registered kind answers the
// same id and byte-identical result bytes through each path that
// dispatches through the table — its standalone route, a batch item,
// journal recovery after a restart, and a forward from a non-owner on
// a 3-node ring.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"starperf/internal/journal"
	"starperf/internal/wire"
)

// kindSamples holds one cheap request body per registered kind.
var kindSamples = map[string]string{
	"predict":  predictS4,
	"bounds":   boundsS4,
	"simulate": recoverySim,
	"sweep":    `{"panel":"a","points":1,"seeds":[1],"warmup":300,"measure":1000}`,
}

// submitKind posts body to k's route and returns the job id and the
// result bytes: the response body of a sync kind, the polled result
// of an async one.
func submitKind(t *testing.T, base string, k *jobKind, body string) (string, []byte) {
	t.Helper()
	resp := postJSON(t, base+k.route, body)
	raw := readBody(t, resp)
	if k.sync {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", k.route, resp.StatusCode, raw)
		}
		return resp.Header.Get(wire.JobHeader), raw
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", k.route, resp.StatusCode, raw)
	}
	var jb wire.Job
	if err := json.Unmarshal(raw, &jb); err != nil {
		t.Fatal(err)
	}
	return jb.ID, jobResultBody(t, base, jb.ID)
}

func TestEveryKindRoundTripsEveryPath(t *testing.T) {
	for _, k := range registry {
		t.Run(k.name, func(t *testing.T) {
			body, ok := kindSamples[k.name]
			if !ok {
				t.Fatalf("no sample body for registered kind %q", k.name)
			}
			if k == sweepKind && testing.Short() {
				t.Skip("runs a (small) simulation sweep")
			}

			// Standalone route on a pristine node: the reference.
			_, ts := newTestServer(t, Config{Workers: 2})
			id, want := submitKind(t, ts.URL, k, body)
			if !strings.HasPrefix(id, "sha256:") {
				t.Fatalf("standalone id %q is not a content hash", id)
			}

			// A batch item on another pristine node.
			_, bts := newTestServer(t, Config{Workers: 2})
			br := postBatch(t, bts.URL, batchBody(t, `{"kind":"`+k.name+`","config":`+body+`}`))
			if it := br.Items[0]; it.Error != nil || it.ID != id {
				t.Fatalf("batch item = %+v, want id %s", it, id)
			}
			if got := jobResultBody(t, bts.URL, id); string(got) != string(want) {
				t.Fatalf("batch result differs:\n %s\n %s", got, want)
			}

			// Journal recovery: accepted on a node that crashes before
			// running it, replayed and served by its restart.
			if got := recoverKind(t, k, body, id); string(got) != string(want) {
				t.Fatalf("recovered result differs:\n %s\n %s", got, want)
			}

			// A forward from a non-owner on a 3-node ring.
			tc := newTestCluster(t, 3, nil)
			order := tc.order(id)
			fid, got := submitKind(t, tc.url(order[1]), k, body)
			if fid != id || string(got) != string(want) {
				t.Fatalf("forwarded: id %s, result\n %s\nwant id %s, result\n %s", fid, got, id, want)
			}
			if n := tc.srvs[order[1]].cluster.forwarded.Load(); n != 1 {
				t.Fatalf("non-owner forwarded %d requests, want 1", n)
			}
		})
	}
}

// recoverKind submits body to a journaled node whose only worker is
// wedged, abandons the node once the job's accepted record is durable
// (a crash), and restarts on the same journal. It checks the journaled
// record carries id and returns the result the restart serves.
func recoverKind(t *testing.T, k *jobKind, body, id string) []byte {
	t.Helper()
	jdir := t.TempDir()
	j1, _, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, Cache: cacheCfg(t), Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	gate := make(chan struct{})
	defer func() {
		// Drain the crashed node before its dirs go: its worker now
		// runs the job, but the closed journal takes no more records.
		close(gate)
		if err := s1.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	if _, err := s1.Pool().Submit("sha256:wedge", func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// A sync kind's caller waits for the bytes; it gives up once the
	// job is durably accepted, as a client of a crashing node would.
	ctx, cancel := context.WithCancel(context.Background())
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		req, err := http.NewRequestWithContext(ctx, "POST", ts1.URL+k.route, strings.NewReader(body))
		if err != nil {
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for j1.Pending() < 2 { // the wedge and the job
		if time.Now().After(deadline) {
			t.Fatalf("%s job never journaled", k.name)
		}
		time.Sleep(time.Millisecond)
	}
	if !k.sync {
		<-sent // the 202 went out
	}
	cancel()
	<-sent
	ts1.Close() // CRASH: no drain, only the fsynced journal survives
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var found bool
	for _, r := range rec.Incomplete {
		found = found || (r.Kind == k.name && r.ID == id)
	}
	if !found {
		t.Fatalf("no incomplete %s record with id %s in %+v", k.name, id, rec.Incomplete)
	}
	s2, err := New(Config{Workers: 2, Cache: cacheCfg(t), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := s2.Recover(rec); got.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the %s job requeued", got, k.name)
	}
	out := jobResultBody(t, ts2.URL, id)
	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	if err := s2.Close(cctx); err != nil {
		t.Fatal(err)
	}
	return out
}
