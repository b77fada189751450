package server

// In-process crash/recovery over the full serving stack: a journaled
// server is killed (abandoned) with a simulate job accepted but not
// finished; a second server opens the same journal, replays the job,
// and serves its result — byte-identical to an uninterrupted run on a
// pristine server.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starperf/internal/cache"
	"starperf/internal/jobs"
	"starperf/internal/journal"
	"starperf/internal/wire"
)

const recoverySim = `{"topo":{"kind":"star","n":3},"v":4,"msg_len":8,"rate":0.002,"seed":7}`

// jobResultBody polls GET /v1/jobs/{id} until done and returns the
// raw result bytes.
func jobResultBody(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("job poll: %d %s", resp.StatusCode, body)
		}
		var jb wire.Job
		if err := json.Unmarshal(body, &jb); err != nil {
			t.Fatal(err)
		}
		switch jb.Status {
		case "done":
			return []byte(jb.Result)
		case "failed":
			t.Fatalf("job failed: %s", jb.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, jb.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitJournalIdle waits until j has no accepted-but-unterminated jobs.
// A job's "done" is visible over HTTP (served from the result cache)
// slightly before the worker's terminal record lands in the journal;
// tests that append their own records right after polling a result
// must wait for that record first, or their append races ahead of the
// worker's and the replay sees a different history.
func waitJournalIdle(t *testing.T, j *journal.Journal) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still has %d pending jobs", j.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJournaledServerRecoversInterruptedJob(t *testing.T) {
	jdir := t.TempDir()

	// The uninterrupted control run, on its own server and cache.
	ctrl, ctrlTS := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ctrlTS.URL+"/v1/simulate", recoverySim)
	var submitted wire.Job
	if err := json.Unmarshal(readBody(t, resp), &submitted); err != nil {
		t.Fatal(err)
	}
	want := jobResultBody(t, ctrlTS.URL, submitted.ID)
	_ = ctrl

	// Run 1: a journaled server accepts the same job but "crashes"
	// before its single worker — wedged on a blocked job — can run it.
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
	// The "crashed" s1 still owns a live worker. Once the gate opens it
	// runs the simulate job and writes into its cache dir, so shut it
	// down before the TempDirs go (cleanups run LIFO, after the body).
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s1.Close(ctx) // shutting the crashed server down is not under test
		_ = j1.Close()
	})
	if _, err := s1.Pool().SubmitMeta("sha256:wedge", jobs.Meta{}, func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts1.URL+"/v1/simulate", recoverySim)
	var accepted wire.Job
	if err := json.Unmarshal(readBody(t, resp), &accepted); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || accepted.ID != submitted.ID {
		t.Fatalf("journaled submit: %d %+v (control id %s)", resp.StatusCode, accepted, submitted.ID)
	}
	ts1.Close()
	// CRASH: no Close, no drain — only the fsynced journal survives.

	// Run 2: reopen the journal; the accepted-but-unfinished simulate
	// must be incomplete, replay through Recover, and serve its result.
	j2, rec, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Two interrupted records survive: the wedge (journaled with no
	// meta — Recover will fail it terminally, which is exactly what
	// should happen to a job nobody can rebuild) and the simulate.
	if len(rec.Incomplete) != 2 {
		t.Fatalf("recovery = %+v, want wedge + simulate", rec.Incomplete)
	}
	var sim *journal.Record
	for i := range rec.Incomplete {
		if rec.Incomplete[i].ID == submitted.ID {
			sim = &rec.Incomplete[i]
		}
	}
	if sim == nil || sim.Kind != "simulate" {
		t.Fatalf("simulate job missing from recovery: %+v", rec.Incomplete)
	}
	s2, err := New(Config{Workers: 2, Cache: cacheCfg(t), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	recov := s2.Recover(rec)
	if recov.Requeued != 1 || recov.Skipped != 0 || recov.Failed != 1 {
		t.Fatalf("server recovery = %+v, want 1 requeued (simulate) + 1 failed (wedge)", recov)
	}
	got := jobResultBody(t, ts2.URL, submitted.ID)
	if string(got) != string(want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n %s\n %s", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Run 3: books closed — nothing incomplete remains.
	j3, rec3, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rec3.Incomplete) != 0 {
		t.Fatalf("after recovery, %d jobs still incomplete: %+v", len(rec3.Incomplete), rec3.Incomplete)
	}
}

// TestRecoverSkipsCachedResults: a job whose result already sits in
// the (shared) disk cache is journaled done without recomputation.
func TestRecoverSkipsCachedResults(t *testing.T) {
	jdir := t.TempDir()
	cdir := t.TempDir()

	j1, _, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, Cache: cacheCfgDir(cdir), Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp := postJSON(t, ts1.URL+"/v1/simulate", recoverySim)
	var jb wire.Job
	if err := json.Unmarshal(readBody(t, resp), &jb); err != nil {
		t.Fatal(err)
	}
	// Let it finish (result lands in the disk cache), then journal an
	// extra accepted record with no terminal — as if a crash hit a
	// duplicate submission after the first completed.
	jobResultBody(t, ts1.URL, jb.ID)
	waitJournalIdle(t, j1)
	sim, err := simulateKind.parse([]byte(recoverySim))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(journal.Record{Type: journal.TypeAccepted, ID: jb.ID, Kind: sim.meta.Kind, Req: sim.meta.Req}); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	j2, rec, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Incomplete) != 1 {
		t.Fatalf("recovery = %+v, want 1 incomplete", rec.Incomplete)
	}
	s2, err := New(Config{Workers: 1, Cache: cacheCfgDir(cdir), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	recov := s2.Recover(rec)
	if recov.Skipped != 1 || recov.Requeued != 0 {
		t.Fatalf("recovery with cached result = %+v, want 1 skipped", recov)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRequeuesCorruptCachedResult: recovery must take a
// verifying read of the cache, not a bare existence check — a corrupt
// disk entry journaled as "done" would 404 the job forever. The
// corrupt entry is quarantined, the job re-enqueued, and the
// recomputed result is byte-identical to the pre-crash one.
func TestRecoverRequeuesCorruptCachedResult(t *testing.T) {
	jdir := t.TempDir()
	cdir := t.TempDir()

	j1, _, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, Cache: cacheCfgDir(cdir), Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp := postJSON(t, ts1.URL+"/v1/simulate", recoverySim)
	var jb wire.Job
	if err := json.Unmarshal(readBody(t, resp), &jb); err != nil {
		t.Fatal(err)
	}
	want := jobResultBody(t, ts1.URL, jb.ID)
	waitJournalIdle(t, j1)
	// An accepted record with no terminal, as if a crash caught a
	// duplicate submission right after the first run completed.
	sim, err := simulateKind.parse([]byte(recoverySim))
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(journal.Record{Type: journal.TypeAccepted, ID: jb.ID, Kind: sim.meta.Kind, Req: sim.meta.Req}); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Corrupt the persisted entry: the file still exists (Contains
	// would be fooled) but fails verification.
	entry := filepath.Join(cdir, strings.TrimPrefix(jb.ID, "sha256:")+".json")
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("cache entry not on disk before corruption: %v", err)
	}
	if err := os.WriteFile(entry, []byte("starperf-cache v2 garbage\nnot the payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Incomplete) != 1 {
		t.Fatalf("recovery = %+v, want 1 incomplete", rec.Incomplete)
	}
	s2, err := New(Config{Workers: 1, Cache: cacheCfgDir(cdir), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	recov := s2.Recover(rec)
	if recov.Requeued != 1 || recov.Skipped != 0 {
		t.Fatalf("recovery with corrupt cache = %+v, want 1 requeued (a stat-only check would skip it)", recov)
	}
	if q := s2.cache.Stats().Quarantined; q < 1 {
		t.Fatalf("corrupt entry not quarantined (quarantined = %d)", q)
	}
	got := jobResultBody(t, ts2.URL, jb.ID)
	if string(got) != string(want) {
		t.Fatalf("recomputed result differs:\n %s\n %s", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Books closed: the requeued job reached done, nothing replays.
	j3, rec3, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rec3.Incomplete) != 0 {
		t.Fatalf("after corrupt-entry recovery, still incomplete: %+v", rec3.Incomplete)
	}
}

func cacheCfgDir(dir string) cache.Config {
	return cache.Config{Dir: dir}
}

// TestAsyncResubmitRecomputesCorruptCacheEntry: an async submit takes
// the same verifying cache read as the poll. A corrupt disk entry is
// quarantined and the job accepted and recomputed — never answered
// done on the strength of a file the poll would then 404.
func TestAsyncResubmitRecomputesCorruptCacheEntry(t *testing.T) {
	cdir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, Cache: cacheCfgDir(cdir)})
	id, want := submitKind(t, ts1.URL, simulateKind, recoverySim)
	ts1.Close()
	// The poll can read the result from the memory tier before the
	// disk write lands; corrupting the file any earlier would be
	// undone by that write.
	for deadline := time.Now().Add(10 * time.Second); s1.cache.Stats().DiskWrites == 0; {
		if time.Now().After(deadline) {
			t.Fatal("cache entry never written to disk")
		}
		time.Sleep(time.Millisecond)
	}

	entry := filepath.Join(cdir, strings.TrimPrefix(id, "sha256:")+".json")
	if err := os.WriteFile(entry, []byte("starperf-cache v2 garbage\nnot the payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart on the same cache dir and resubmit.
	s2, ts2 := newTestServer(t, Config{Workers: 1, Cache: cacheCfgDir(cdir)})
	resp := postJSON(t, ts2.URL+"/v1/simulate", recoverySim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit over a corrupt entry: %d %s, want 202", resp.StatusCode, body)
	}
	if q := s2.cache.Stats().Quarantined; q < 1 {
		t.Fatalf("corrupt entry not quarantined (quarantined = %d)", q)
	}
	if got := jobResultBody(t, ts2.URL, id); string(got) != string(want) {
		t.Fatalf("recomputed result differs:\n %s\n %s", got, want)
	}
}
