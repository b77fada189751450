package journal

// Group-commit tests: batch appends coalesce into single fsyncs,
// concurrent appenders share commits, and a crash mid-batch tears
// only the unacknowledged tail — committed records replay
// byte-identically and nothing uncommitted is resurrected as garbage.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"starperf/internal/fsx"
)

// TestAppendBatchSingleCommit: a batch of records is one commit — one
// write, one fsync — and replays intact.
func TestAppendBatchSingleCommit(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	recs := make([]Record, 16)
	for i := range recs {
		recs[i] = accepted(i)
	}
	if err := j.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Commits != 1 || st.CommitRecords != 16 || st.MaxBatch != 16 {
		t.Fatalf("batch did not coalesce: commits=%d records=%d max=%d",
			st.Commits, st.CommitRecords, st.MaxBatch)
	}
	if st.FsyncsSaved != 15 {
		t.Fatalf("FsyncsSaved = %d, want 15", st.FsyncsSaved)
	}
	if st.Appends != 16 {
		t.Fatalf("Appends = %d, want 16", st.Appends)
	}
	// Sequence numbers were assigned in order.
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d got seq %d", i, r.Seq)
		}
	}
	j.Close()
	rec := reopenClean(t, dir)
	if rec.Records != 16 || len(rec.Incomplete) != 16 {
		t.Fatalf("replay saw %d records, %d incomplete; want 16/16",
			rec.Records, len(rec.Incomplete))
	}
	if rec.CorruptSkipped != 0 {
		t.Fatalf("replay skipped %d records as corrupt", rec.CorruptSkipped)
	}
}

// TestAppendBatchRespectsGroupMax: a batch larger than groupMaxRecords
// still commits as one unit (a batch waiter is indivisible), while
// separate appends split at the cap.
func TestAppendBatchRespectsGroupMax(t *testing.T) {
	j, _ := mustOpen(t, Options{Dir: t.TempDir()})
	recs := make([]Record, groupMaxRecords+10)
	for i := range recs {
		recs[i] = accepted(i)
	}
	if err := j.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Commits != 1 || st.MaxBatch != len(recs) {
		t.Fatalf("oversized batch split: %+v", st)
	}
	j.Close()
}

// TestAppendBatchEmptyAndClosed: the degenerate inputs.
func TestAppendBatchEmptyAndClosed(t *testing.T) {
	j, _ := mustOpen(t, Options{Dir: t.TempDir()})
	if err := j.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	j.Close()
	if err := j.AppendBatch([]Record{accepted(0)}); err != ErrClosed {
		t.Fatalf("append batch after close: %v, want ErrClosed", err)
	}
	if err := j.Append(accepted(0)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// slowSyncFS delays every file Sync, widening the window in which
// concurrent appends pile into the next batch.
type slowSyncFS struct {
	fsx.FS
	delay time.Duration
}

func (s slowSyncFS) OpenAppend(name string) (fsx.File, error) {
	f, err := s.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, s.delay}, nil
}

type slowSyncFile struct {
	fsx.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitCoalescesConcurrentAppends: 64 appenders against a
// slow fsync must share commits — the whole point of group commit —
// and every acknowledged record must replay.
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, FS: slowSyncFS{fsx.OS{}, 2 * time.Millisecond}})
	const n = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = j.Append(accepted(i))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := j.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	// With a 2ms fsync, the first commit's sync window collects the
	// rest; requiring < n commits only fails if no batching happened
	// at all.
	if st.Commits >= n {
		t.Fatalf("no coalescing: %d commits for %d appends", st.Commits, n)
	}
	if st.FsyncsSaved == 0 {
		t.Fatalf("FsyncsSaved = 0 across %d concurrent appends", n)
	}
	if st.CommitMeanMicros <= 0 || st.CommitP50Micros == 0 {
		t.Fatalf("commit latency histogram empty: %+v", st)
	}
	j.Close()
	rec := reopenClean(t, dir)
	if rec.Records != n || len(rec.Incomplete) != n {
		t.Fatalf("replay saw %d records, %d incomplete; want %d", rec.Records, len(rec.Incomplete), n)
	}
}

// TestGroupCommitTornBatchTail crashes the filesystem at every
// mutating op while a committed batch A is followed by an in-flight
// batch B. Whatever survives must satisfy: every record of A (whose
// AppendBatch was acknowledged) replays byte-identically; surviving
// records of B are a prefix of B (one sequential write can only tear
// at one point); nothing replays that was never written.
func TestGroupCommitTornBatchTail(t *testing.T) {
	batchA := make([]Record, 3)
	for i := range batchA {
		batchA[i] = accepted(i)
	}
	batchB := make([]Record, 4)
	for i := range batchB {
		batchB[i] = accepted(100 + i)
	}
	run := func(fa fsx.FS) (ackA, ackB bool, dirUsed string) {
		dir := t.TempDir()
		j, _, err := Open(Options{Dir: dir, FS: fa})
		if err != nil {
			return false, false, dir
		}
		a := make([]Record, len(batchA))
		copy(a, batchA)
		b := make([]Record, len(batchB))
		copy(b, batchB)
		ackA = j.AppendBatch(a) == nil
		ackB = j.AppendBatch(b) == nil
		j.Close()
		return ackA, ackB, dir
	}
	// Probe run fixes the op domain.
	probe := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 7})
	if _, _, _ = run(probe); probe.Ops() < 4 {
		t.Fatalf("probe too small: %d ops", probe.Ops())
	}
	for crash := 1; crash <= probe.Ops(); crash++ {
		crash := crash
		t.Run(fmt.Sprintf("crash@%d", crash), func(t *testing.T) {
			fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 7, CrashAt: crash, ShortWrites: true})
			ackA, ackB, dir := run(fa)
			rec := reopenClean(t, dir)
			// Index the survivors by id.
			got := make(map[string]Record, len(rec.Incomplete))
			for _, r := range rec.Incomplete {
				got[r.ID] = r
			}
			if len(got) != len(rec.Incomplete) {
				t.Fatalf("duplicate ids in recovery: %+v", rec.Incomplete)
			}
			known := make(map[string]Record)
			for _, r := range append(append([]Record{}, batchA...), batchB...) {
				known[r.ID] = r
			}
			for id, r := range got {
				want, ok := known[id]
				if !ok {
					t.Fatalf("replay invented record %q", id)
				}
				if r.Kind != want.Kind || !bytes.Equal(r.Req, want.Req) {
					t.Fatalf("record %q corrupted in replay: got %+v want %+v", id, r, want)
				}
			}
			if ackA {
				for _, r := range batchA {
					if _, ok := got[r.ID]; !ok {
						t.Fatalf("acknowledged batch A record %q lost", r.ID)
					}
				}
			}
			if ackB {
				for _, r := range batchB {
					if _, ok := got[r.ID]; !ok {
						t.Fatalf("acknowledged batch B record %q lost", r.ID)
					}
				}
			} else {
				// Unacknowledged: any prefix of B may have landed, but a
				// later record must never survive an earlier one's loss —
				// the batch is one sequential write.
				seenGap := false
				for _, r := range batchB {
					_, ok := got[r.ID]
					if seenGap && ok {
						t.Fatalf("batch B record %q survived after an earlier record was lost", r.ID)
					}
					if !ok {
						seenGap = true
					}
				}
			}
		})
	}
}

// TestChaosBatchWorkloadCrashAtEveryOp reruns the standard recovery
// invariants with the accepts submitted through AppendBatch instead of
// serial Appends, at every crash point. Like runChaosWorkload it runs
// two waves, so the second wave's batch and compactions land on a
// journal still holding the first wave's incomplete job.
func TestChaosBatchWorkloadCrashAtEveryOp(t *testing.T) {
	runBatch := func(j *Journal) *chaosWorkload {
		w := &chaosWorkload{
			ackAccepted:  make(map[string]bool),
			tryAccepted:  make(map[string]bool),
			ackTerminal:  make(map[string]bool),
			tryTerminal:  make(map[string]bool),
			expectedLive: map[string]bool{accepted(5).ID: true, accepted(11).ID: true},
		}
		term := func(r Record) {
			w.tryTerminal[r.ID] = true
			if err := j.Append(r); err == nil {
				w.ackTerminal[r.ID] = true
			}
		}
		for base := 0; base < 12; base += 6 {
			batch := make([]Record, 6)
			for i := range batch {
				batch[i] = accepted(base + i)
				w.tryAccepted[batch[i].ID] = true
			}
			if err := j.AppendBatch(batch); err == nil {
				for _, r := range batch {
					w.ackAccepted[r.ID] = true
				}
			}
			for i := base; i < base+6; i++ {
				j.Append(Record{Type: TypeStarted, ID: accepted(i).ID})
			}
			for i := base; i < base+4; i++ {
				term(Record{Type: TypeDone, ID: accepted(i).ID})
			}
			term(Record{Type: TypeFailed, ID: accepted(base + 4).ID, Err: "chaos"})
		}
		return w
	}
	probe := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 3})
	j, _, err := Open(Options{Dir: t.TempDir(), FS: probe, SegmentBytes: chaosSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	w := runBatch(j)
	j.Close()
	checkRecovery(t, "fault-free", w, reopenClean(t, j.opts.Dir))
	for crash := 1; crash <= probe.Ops(); crash++ {
		crash := crash
		t.Run(fmt.Sprintf("crash@%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 3, CrashAt: crash})
			j, _, err := Open(Options{Dir: dir, FS: fa, SegmentBytes: chaosSegmentBytes})
			if err != nil {
				return
			}
			w := runBatch(j)
			j.Close()
			checkRecovery(t, fmt.Sprintf("crash@%d", crash), w, reopenClean(t, dir))
		})
	}
}
