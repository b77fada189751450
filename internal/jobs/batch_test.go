package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"starperf/internal/cfgerr"
	"starperf/internal/journal"
)

// TestSubmitBatchOutcomes: one call, per-item results — good items
// run, bad items error, duplicates dedup onto the first occurrence,
// and overflow items get the typed queue-full error.
func TestSubmitBatchOutcomes(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 3})
	defer p.Shutdown(context.Background())
	ran := func(v int) Func {
		return func(ctx context.Context) (any, error) { return v, nil }
	}
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock() // the deferred Shutdown needs the parked jobs released
	park := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	// Fill the workers so the queue bound is observable. Bounded poll
	// (~2s) as in pool_test, not a wall-clock deadline.
	p.SubmitMeta("park/0", Meta{}, park)
	p.SubmitMeta("park/1", Meta{}, park)
	for tries := 0; p.Stats().Running < 2; tries++ {
		if tries > 2000 {
			t.Fatal("workers never picked up parked jobs")
		}
		time.Sleep(time.Millisecond)
	}
	res := p.SubmitBatch([]BatchItem{
		{ID: "batch/0", Fn: ran(0)},
		{ID: "", Fn: ran(1)},        // invalid: empty id
		{ID: "batch/2", Fn: nil},    // invalid: nil fn
		{ID: "batch/0", Fn: ran(3)}, // duplicate of item 0
		{ID: "batch/4", Fn: ran(4)}, // fills the queue with 0, park backlog...
		{ID: "batch/5", Fn: ran(5)}, // third slot
		{ID: "batch/6", Fn: ran(6)}, // queue full
	})
	if len(res) != 7 {
		t.Fatalf("got %d results for 7 items", len(res))
	}
	if res[0].Err != nil || res[0].Job == nil {
		t.Fatalf("item 0: %+v", res[0])
	}
	if !errors.Is(res[1].Err, cfgerr.ErrInvalid) {
		t.Fatalf("empty id: %v, want cfgerr.ErrInvalid", res[1].Err)
	}
	if !errors.Is(res[2].Err, cfgerr.ErrInvalid) {
		t.Fatalf("nil fn: %v, want cfgerr.ErrInvalid", res[2].Err)
	}
	if res[3].Job != res[0].Job || res[3].Err != nil {
		t.Fatalf("duplicate did not dedup: %+v vs %+v", res[3], res[0])
	}
	if res[4].Err != nil || res[5].Err != nil {
		t.Fatalf("items 4/5 rejected: %v %v", res[4].Err, res[5].Err)
	}
	if !errors.Is(res[6].Err, ErrQueueFull) {
		t.Fatalf("overflow item: %v, want ErrQueueFull", res[6].Err)
	}
	st := p.Stats()
	if st.Deduped != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 deduped 1 rejected", st)
	}
	unblock()
	for _, i := range []int{0, 4, 5} {
		v, err := res[i].Job.Wait(context.Background())
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if want := map[int]int{0: 0, 4: 4, 5: 5}[i]; v.(int) != want {
			t.Fatalf("item %d returned %v, want %d", i, v, want)
		}
	}
}

// TestSubmitBatchSingleJournalCommit: the accepted set is one
// AppendBatch — the journal sees one commit carrying every accepted
// record, and each record replays after a restart.
func TestSubmitBatchSingleJournalCommit(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 64, Journal: j})
	block := make(chan struct{})
	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{
			ID:   fmt.Sprintf("batch/%d", i),
			Meta: Meta{Kind: "predict", Req: []byte(fmt.Sprintf(`{"i":%d}`, i))},
			Fn:   func(ctx context.Context) (any, error) { <-block; return nil, nil },
		}
	}
	res := p.SubmitBatch(items)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	st := j.Stats()
	// One accepted-set commit; the worker may have appended a started
	// record for the job it picked up, so allow commits ≥ 1 but demand
	// a single commit carried all 8 accepted records.
	if st.MaxBatch != 8 {
		t.Fatalf("accepted set split across commits: %+v", st)
	}
	close(block)
	p.Shutdown(context.Background())
	j.Close()

	// The accepted records replay: a crash right after SubmitBatch
	// would re-run all 8.
	j2, rec, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.CorruptSkipped != 0 {
		t.Fatalf("recovery skipped %d records", rec.CorruptSkipped)
	}
	seen := make(map[string]bool)
	for _, r := range rec.Incomplete {
		seen[r.ID] = true
	}
	// All jobs finished before shutdown, so nothing should be pending —
	// but every accepted record must have been journaled (replayed
	// counts accepted+started+done).
	if len(rec.Incomplete) != 0 {
		t.Fatalf("unexpected pending jobs after clean shutdown: %v", seen)
	}
	if rec.Records < 8*2 {
		t.Fatalf("journal replayed only %d records for 8 accepted+terminal", rec.Records)
	}
}

// TestSubmitBatchClosedPool: batch against a shut-down pool errors
// every item with ErrPoolClosed.
func TestSubmitBatchClosedPool(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	p.Shutdown(context.Background())
	res := p.SubmitBatch([]BatchItem{
		{ID: "a", Fn: func(ctx context.Context) (any, error) { return nil, nil }},
		{ID: "b", Fn: func(ctx context.Context) (any, error) { return nil, nil }},
	})
	for i, r := range res {
		if !errors.Is(r.Err, ErrPoolClosed) {
			t.Fatalf("item %d: %v, want ErrPoolClosed", i, r.Err)
		}
	}
}

// TestSubmitBatchMatchesIndividualSubmits: the same items submitted as
// a batch and one-by-one produce identical results (content-hash ids
// make this byte-identical by construction; assert it anyway — the
// batch path must not perturb execution).
func TestSubmitBatchMatchesIndividualSubmits(t *testing.T) {
	run := func(batch bool) map[string]any {
		p := NewPool(PoolConfig{Workers: 2, QueueDepth: 16})
		defer p.Shutdown(context.Background())
		items := make([]BatchItem, 6)
		for i := range items {
			i := i
			items[i] = BatchItem{
				ID: fmt.Sprintf("job/%d", i),
				Fn: func(ctx context.Context) (any, error) { return i * 7, nil },
			}
		}
		out := make(map[string]any)
		if batch {
			for i, r := range p.SubmitBatch(items) {
				if r.Err != nil {
					t.Fatalf("batch item %d: %v", i, r.Err)
				}
				v, err := r.Job.Wait(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				out[items[i].ID] = v
			}
			return out
		}
		for _, it := range items {
			j, err := p.SubmitMeta(it.ID, it.Meta, it.Fn)
			if err != nil {
				t.Fatal(err)
			}
			v, err := j.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[it.ID] = v
		}
		return out
	}
	batched, serial := run(true), run(false)
	if len(batched) != len(serial) {
		t.Fatalf("result sets differ: %d vs %d", len(batched), len(serial))
	}
	for id, v := range serial {
		if batched[id] != v {
			t.Fatalf("job %s: batch=%v serial=%v", id, batched[id], v)
		}
	}
}
