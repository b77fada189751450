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
// appends (64 concurrent appenders sharing fsyncs, and the explicit
// AppendBatch API — both reported per record so they read directly
// against append_fsync), and cold-start replay of a populated log.

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
				var next atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < 64; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
							if err := j.Append(lifecycleRecord(i)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
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
