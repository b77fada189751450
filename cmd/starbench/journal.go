package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"starperf/internal/journal"
)

// The journal suite: microbenchmarks of the durability layer —
// fsynced appends (the price every accepted job pays), appends with
// fsync off (isolating the encoding + write cost), group-committed
// appends (64 concurrent appenders sharing fsyncs, alone and on top of
// a backlog larger than a segment, and the explicit AppendBatch API —
// all reported per record so they read directly against
// append_fsync), and cold-start replay of a populated log.

// backlogRecords is append_fsync_backlog's pending set: that many
// accepted jobs that never complete, ~1.7 MB of records, more than
// one default 1 MiB segment.
const backlogRecords = 8192

// lifecycleRecord is record i of the accept/done stream: even i
// accepts job i/2 — a content hash id plus a small canonical request
// body — and odd i completes it. Alternating keeps the pending set
// bounded the way a live pool does — an append-only stream of unique
// accepted records would make every post-rotation compaction rewrite
// the whole history, measuring a pathology instead of the WAL.
func lifecycleRecord(i int) journal.Record {
	id := fmt.Sprintf("sha256:%064x", i/2)
	if i%2 == 1 {
		return journal.Record{Type: journal.TypeDone, ID: id}
	}
	return journal.Record{
		Type: journal.TypeAccepted,
		ID:   id,
		Kind: "simulate",
		Req:  []byte(fmt.Sprintf(`{"msg_len":8,"rate":0.002,"seed":%d,"topo":{"kind":"star","n":3},"v":4}`, i/2)),
	}
}

// appendPairs is the 64-appender workload: 64 goroutines append the
// first n lifecycle records against j, each taking whole
// accept-then-done pairs from one shared pair counter. A job's done
// is appended only after its accepted has committed, so the stream
// leaves no job pending. Every Append waits for its group commit, so
// concurrent appenders share write+fsync units.
func appendPairs(tb testing.TB, j *journal.Journal, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; 2*k < n; k = int(next.Add(1)) - 1 {
				for i := 2 * k; i < min(2*k+2, n); i++ {
					if err := j.Append(lifecycleRecord(i)); err != nil {
						tb.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// withJournal runs body against a fresh journal in a temp dir, with
// the timer reset after setup.
func withJournal(b *testing.B, noSync bool, body func(j *journal.Journal, dir string)) {
	dir := b.TempDir()
	j, _, err := journal.Open(journal.Options{Dir: dir, NoSync: noSync})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ResetTimer()
	body(j, dir)
}

// appendEach appends the first b.N lifecycle records one at a time.
func appendEach(b *testing.B, noSync bool) {
	withJournal(b, noSync, func(j *journal.Journal, _ string) {
		for i := 0; i < b.N; i++ {
			if err := j.Append(lifecycleRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func journalBenches() ([]bench, error) {
	return []bench{
		{variant{Name: "append_fsync"}, func(b *testing.B) { appendEach(b, false) }},
		{variant{Name: "append_nosync"}, func(b *testing.B) { appendEach(b, true) }},
		{variant{Name: "append_fsync_batch64"}, func(b *testing.B) {
			// 64 concurrent appenders against one durable journal: the
			// group committer coalesces their records into shared
			// write+fsync units, so the per-record cost (ns/op — b.N
			// counts records, not commits) amortises the sync across
			// the batch. CI's bench-journal gate requires ≥5× the
			// serial append_fsync figure.
			withJournal(b, false, func(j *journal.Journal, _ string) {
				appendPairs(b, j, b.N)
			})
		}},
		{variant{Name: "append_fsync_backlog"}, func(b *testing.B) {
			// append_fsync_batch64 over a pending set larger than a
			// segment, so every compaction rewrites ~1.7 MB. The
			// journal rotates only after a segment of new records, so
			// that rewrite is paid once per segment; a journal that
			// rotated whenever the file reached a segment would pay it
			// at every commit, and this row would show it.
			withJournal(b, false, func(j *journal.Journal, _ string) {
				backlog := make([]journal.Record, backlogRecords)
				for k := range backlog {
					// ids from 2^32 up stay clear of the workload's ids
					backlog[k] = lifecycleRecord(2 * (1<<32 + k))
				}
				if err := j.AppendBatch(backlog); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				appendPairs(b, j, b.N)
			})
		}},
		{variant{Name: "appendbatch_fsync_64"}, func(b *testing.B) {
			// The explicit batch API: one AppendBatch call per 64
			// records — the journal half of POST /v1/jobs:batch — so
			// one fsync covers the whole set by construction. Reported
			// per record (b.N counts records) like the variants above.
			withJournal(b, false, func(j *journal.Journal, _ string) {
				recs := make([]journal.Record, 0, 64)
				for i := 0; i < b.N; i++ {
					recs = append(recs, lifecycleRecord(i))
					if len(recs) == 64 || i == b.N-1 {
						if err := j.AppendBatch(recs); err != nil {
							b.Fatal(err)
						}
						recs = recs[:0]
					}
				}
			})
		}},
		{variant{Name: "replay_1k_records"}, func(b *testing.B) {
			withJournal(b, true, func(j *journal.Journal, dir string) {
				for i := 0; i < 1000; i++ {
					if err := j.Append(lifecycleRecord(2 * i)); err != nil {
						b.Fatal(err)
					}
				}
				j.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					jr, rec, err := journal.Open(journal.Options{Dir: dir, NoSync: true})
					if err != nil {
						b.Fatal(err)
					}
					if rec.Records < 1000 {
						b.Fatalf("replayed %d records, want ≥1000", rec.Records)
					}
					jr.Close()
					// Every Open leaves a fresh (empty) live segment; drop
					// them so each iteration replays the same directory.
					b.StopTimer()
					ents, err := os.ReadDir(dir)
					if err != nil {
						b.Fatal(err)
					}
					for _, e := range ents {
						if fi, err := e.Info(); err == nil && fi.Size() == 0 {
							os.Remove(filepath.Join(dir, e.Name()))
						}
					}
					b.StartTimer()
				}
			})
		}},
	}, nil
}
