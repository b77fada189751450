package jobs

// In-process crash-recovery tests for the journaled pool: a pool is
// "killed" by abandoning it mid-flight (its blocked workers never
// finish, exactly as if the process had died), the journal directory
// is re-opened, and a fresh pool replays it. The process-level
// variant — a real kill -9 against starperfd — lives in the CI
// chaos-smoke job; the invariants checked are the same: every
// accepted job reaches done/failed exactly once, with byte-identical
// results to an uninterrupted run.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"starperf/internal/journal"
)

// crashResult computes the deterministic payload of job i — what an
// uninterrupted run would produce.
func crashResult(i int) []byte {
	return []byte(fmt.Sprintf(`{"job":%d,"payload":"%032x"}`, i, i*i+7))
}

func crashID(i int) string { return fmt.Sprintf("sha256:%064x", i) }

func crashMeta(i int) Meta {
	return Meta{Kind: "test", Req: []byte(fmt.Sprintf(`{"i":%d}`, i))}
}

// TestCrashRecoveryReplaysInterruptedJobs: kill a journaled pool with
// four jobs done, two running and four queued; a recovered pool must
// finish exactly the six interrupted jobs, byte-identically.
func TestCrashRecoveryReplaysInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	j1, rec0, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec0.Incomplete) != 0 {
		t.Fatalf("fresh journal has %d incomplete", len(rec0.Incomplete))
	}

	gate := make(chan struct{}) // never closed: jobs 4+ hang like a crash caught them
	p1 := NewPool(PoolConfig{Workers: 2, QueueDepth: 16, Journal: j1})
	var jobs1 []*Job
	for i := 0; i < 10; i++ {
		i := i
		fn := func(ctx context.Context) (any, error) { return crashResult(i), nil }
		if i >= 4 {
			fn = func(ctx context.Context) (any, error) { <-gate; return crashResult(i), nil }
		}
		jb, err := p1.SubmitMeta(crashID(i), crashMeta(i), fn)
		if err != nil {
			t.Fatal(err)
		}
		jobs1 = append(jobs1, jb)
	}
	// The first four complete; 4 and 5 block both workers; 6–9 queue.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		v, err := jobs1[i].Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if string(v.([]byte)) != string(crashResult(i)) {
			t.Fatalf("job %d result %q", i, v)
		}
	}
	// CRASH: the pool is abandoned — no shutdown, no drain, the
	// blocked workers leak like a killed process's threads. Every
	// append so far was fsynced, which is all the journal promises.

	j2, rec, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Incomplete) != 6 {
		t.Fatalf("recovered %d incomplete jobs, want 6: %+v", len(rec.Incomplete), rec.Incomplete)
	}
	for _, r := range rec.Incomplete {
		if r.Kind != "test" {
			t.Fatalf("incomplete record lost its kind: %+v", r)
		}
	}

	// Recovery: a fresh pool replays the journal. Each job computes
	// exactly once, from its journaled request payload.
	var mu sync.Mutex
	computed := make(map[int]int)
	p2 := NewPool(PoolConfig{Workers: 2, QueueDepth: 16, Journal: j2})
	recov := p2.Recover(rec.Incomplete, func(id, kind string, req []byte) (Func, bool, error) {
		if kind != "test" {
			return nil, false, fmt.Errorf("unknown kind %q", kind)
		}
		var body struct{ I int }
		if err := json.Unmarshal(req, &body); err != nil {
			return nil, false, err
		}
		if got := crashID(body.I); got != id {
			return nil, false, fmt.Errorf("id mismatch: %s vs %s", got, id)
		}
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			computed[body.I]++
			mu.Unlock()
			return crashResult(body.I), nil
		}, true, nil
	})
	if recov.Requeued != 6 || recov.Skipped != 0 || recov.Failed != 0 {
		t.Fatalf("recovery = %+v, want 6 requeued", recov)
	}
	for i := 4; i < 10; i++ {
		jb, ok := p2.Get(crashID(i))
		if !ok {
			t.Fatalf("job %d missing from recovered pool", i)
		}
		v, err := jb.Wait(ctx)
		if err != nil {
			t.Fatalf("recovered job %d: %v", i, err)
		}
		if string(v.([]byte)) != string(crashResult(i)) {
			t.Fatalf("recovered job %d not byte-identical: %q vs %q", i, v, crashResult(i))
		}
	}
	if err := p2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for i := 4; i < 10; i++ {
		if computed[i] != 1 {
			t.Fatalf("job %d computed %d times after recovery, want exactly 1", i, computed[i])
		}
	}
	for i := 0; i < 4; i++ {
		if computed[i] != 0 {
			t.Fatalf("completed job %d recomputed after recovery", i)
		}
	}
	mu.Unlock()

	// Third boot: the books are closed, nothing left to replay.
	j3, rec3, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rec3.Incomplete) != 0 {
		t.Fatalf("after recovery run, %d jobs still incomplete: %+v", len(rec3.Incomplete), rec3.Incomplete)
	}
}

// TestRecoverSkipsSatisfiedJobs: a resolver reporting "already have
// it" (the cache hit path) journals the job done without recomputing.
func TestRecoverSkipsSatisfiedJobs(t *testing.T) {
	dir := t.TempDir()
	j1, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Two accepted-never-finished records, journaled directly.
	for i := 0; i < 2; i++ {
		if err := j1.Append(journal.Record{
			Type: journal.TypeAccepted, ID: crashID(i),
			Kind: crashMeta(i).Kind, Req: crashMeta(i).Req,
		}); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()

	j2, rec, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p := NewPool(PoolConfig{Workers: 1, Journal: j2})
	recov := p.Recover(rec.Incomplete, func(id, kind string, req []byte) (Func, bool, error) {
		if id == crashID(0) {
			return nil, false, nil // already cached
		}
		return nil, false, fmt.Errorf("bad record")
	})
	if recov.Skipped != 1 || recov.Failed != 1 || recov.Requeued != 0 {
		t.Fatalf("recovery = %+v, want 1 skipped + 1 failed", recov)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Both ids are terminal now; the next boot replays nothing.
	j3, rec3, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(rec3.Incomplete) != 0 {
		t.Fatalf("skip/fail records did not close the books: %+v", rec3.Incomplete)
	}
}

// TestJournaledLifecycleRecords: a normal run journals the full
// accepted→started→done sequence and leaves nothing pending.
func TestJournaledLifecycleRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: 1, Journal: j})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.DoMeta(ctx, crashID(1), Meta{}, func(ctx context.Context) (any, error) {
		return "ok", nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DoMeta(ctx, crashID(2), Meta{}, func(ctx context.Context) (any, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("failing job succeeded")
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending = %d after drained shutdown", st.Pending)
	}
	// 2 × (accepted + started + terminal) = 6 records.
	if st.Appends != 6 {
		t.Fatalf("appends = %d, want 6", st.Appends)
	}
	j.Close()
}
