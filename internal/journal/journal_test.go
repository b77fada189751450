package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"starperf/internal/fsx"
)

func mustOpen(t *testing.T, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

// accepted builds an accepted record for job i.
func accepted(i int) Record {
	return Record{
		Type: TypeAccepted,
		ID:   fmt.Sprintf("sha256:%032x", i),
		Kind: "predict",
		Req:  json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
	}
}

// TestAppendReplayRoundTrip: a full lifecycle journals and replays;
// only the interrupted job comes back as incomplete, with its request
// payload intact.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, Options{Dir: dir})
	if rec.Records != 0 || rec.Segments != 0 || len(rec.Incomplete) != 0 {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(accepted(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Jobs 0 and 1 run to completion; job 2 is interrupted mid-run.
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Type: TypeStarted, ID: accepted(i).ID}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{Type: TypeDone, ID: accepted(0).ID}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeFailed, ID: accepted(1).ID, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if got := j.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if rec2.Records != 8 {
		t.Fatalf("replayed %d records, want 8", rec2.Records)
	}
	if rec2.CorruptSkipped != 0 {
		t.Fatalf("corrupt on a clean journal: %d", rec2.CorruptSkipped)
	}
	if len(rec2.Incomplete) != 1 {
		t.Fatalf("incomplete = %v, want exactly job 2", rec2.Incomplete)
	}
	got := rec2.Incomplete[0]
	if got.ID != accepted(2).ID || got.Kind != "predict" || string(got.Req) != `{"i":2}` {
		t.Fatalf("incomplete record mangled: %+v", got)
	}
}

// TestAppendAfterClose fails with ErrClosed.
func TestAppendAfterClose(t *testing.T) {
	j, _ := mustOpen(t, Options{Dir: t.TempDir()})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(accepted(0)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRotationCompacts: crossing SegmentBytes rotates and compacts
// the history down to the incomplete jobs, bounding disk usage by the
// in-flight count rather than the append count.
func TestRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 512})
	// Many completed jobs, one forever-incomplete straggler.
	if err := j.Append(accepted(999)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Append(accepted(i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Type: TypeDone, ID: accepted(i).ID}); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Rotations == 0 || st.Compactions == 0 {
		t.Fatalf("no rotation/compaction after 201 appends over 512-byte segments: %+v", st)
	}
	if st.Segments > 2 {
		t.Fatalf("%d segments on disk after compaction, want ≤ 2", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// On-disk footprint is bounded: the one pending job plus the live
	// tail, not 201 records.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 2048 {
		t.Fatalf("journal dir holds %d bytes after compaction", total)
	}
	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if len(rec.Incomplete) != 1 || rec.Incomplete[0].ID != accepted(999).ID {
		t.Fatalf("straggler lost across compaction: %+v", rec.Incomplete)
	}
}

// TestExplicitCompact: Compact drops completed history on demand.
func TestExplicitCompact(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		j.Append(accepted(i))
		j.Append(Record{Type: TypeDone, ID: accepted(i).ID})
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Segments != 1 || st.Pending != 0 {
		t.Fatalf("after compact: %+v", st)
	}
	j.Close()
	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if rec.Records != 0 || len(rec.Incomplete) != 0 {
		t.Fatalf("compacted journal replayed %+v", rec)
	}
}

// TestCompactIsOneGroupWrite: compaction rewrites every pending record
// in one write and one fsync, so its sync count does not grow with the
// pending set — the new segment's directory entry, the data, and the
// directory after the old segments go: three, for 4 or 8 pending.
func TestCompactIsOneGroupWrite(t *testing.T) {
	for _, k := range []int{4, 8} {
		dir := t.TempDir()
		j, _ := mustOpen(t, Options{Dir: dir})
		for i := 0; i < k; i++ {
			if err := j.Append(accepted(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := j.Stats()
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		after := j.Stats()
		if got := after.Syncs - before.Syncs; got != 3 {
			t.Fatalf("compacting %d pending: %d syncs, want 3", k, got)
		}
		if got := after.Appends - before.Appends; got != uint64(k) {
			t.Fatalf("compacting %d pending: %d appends, want %d", k, got, k)
		}
		j.Close()
		j2, rec := mustOpen(t, Options{Dir: dir})
		if len(rec.Incomplete) != k || rec.CorruptSkipped != 0 {
			t.Fatalf("compacted journal replayed %d incomplete (%d corrupt), want %d", len(rec.Incomplete), rec.CorruptSkipped, k)
		}
		j2.Close()
	}
}

// TestTornTailSkipped: a half-written final record (the shape a crash
// mid-append leaves) is dropped; everything before it replays.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	j.Append(accepted(0))
	j.Append(accepted(1))
	j.Close()

	// Tear the tail: truncate the newest segment mid-record.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if rec.CorruptSkipped != 1 {
		t.Fatalf("corrupt skipped = %d, want 1", rec.CorruptSkipped)
	}
	if rec.Records != 1 || len(rec.Incomplete) != 1 || rec.Incomplete[0].ID != accepted(0).ID {
		t.Fatalf("replay after torn tail: %+v", rec)
	}
}

// TestFlippedBitSkipped: a corrupted record in the middle of a
// segment fails its checksum and is skipped; later records still
// replay (the damage is contained, not cascading).
func TestFlippedBitSkipped(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	j.Append(accepted(0))
	j.Append(accepted(1))
	j.Append(accepted(2))
	j.Close()

	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the second record's payload.
	mid := len(data) / 2
	data[mid] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if rec.CorruptSkipped != 1 {
		t.Fatalf("corrupt skipped = %d, want 1", rec.CorruptSkipped)
	}
	if rec.Records != 2 {
		t.Fatalf("replayed %d records around the flipped bit, want 2", rec.Records)
	}
}

// TestSeqMonotonicAcrossReopen: sequence numbers keep rising across
// restarts, so replay order stays total.
func TestSeqMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	j.Append(accepted(0))
	j.Close()
	j2, _ := mustOpen(t, Options{Dir: dir})
	j2.Append(accepted(1))
	j2.Close()
	_, rec := mustOpen(t, Options{Dir: dir})
	if len(rec.Incomplete) != 2 {
		t.Fatalf("incomplete = %d, want 2", len(rec.Incomplete))
	}
	if rec.Incomplete[0].Seq >= rec.Incomplete[1].Seq {
		t.Fatalf("seq not monotonic across reopen: %d then %d",
			rec.Incomplete[0].Seq, rec.Incomplete[1].Seq)
	}
	if rec.Incomplete[0].ID != accepted(0).ID {
		t.Fatalf("replay order broken: %+v", rec.Incomplete)
	}
}

// TestAppendErrorCounted: a failing filesystem surfaces the error and
// the AppendErrors counter, and the in-memory lifecycle still
// advances (the journal stays truthful about the pool even when the
// disk lies).
func TestAppendErrorCounted(t *testing.T) {
	fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 3, PWrite: 1})
	j, _, err := Open(Options{Dir: t.TempDir(), FS: fa})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(accepted(0)); err == nil {
		t.Fatal("append over all-writes-fail plan succeeded")
	}
	st := j.Stats()
	if st.AppendErrors != 1 || st.Appends != 0 {
		t.Fatalf("stats = %+v, want 1 append error", st)
	}
	if j.Pending() != 1 {
		t.Fatalf("pending = %d after undurable accept, want 1", j.Pending())
	}
}

// TestRequiresDir: a journal without a directory is a config error.
func TestRequiresDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

// newestSegment returns the path of the highest-numbered segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestIdx uint64
	for _, e := range entries {
		if i, ok := parseSegment(e.Name()); ok && (best == "" || i > bestIdx) {
			best, bestIdx = filepath.Join(dir, e.Name()), i
		}
	}
	if best == "" {
		t.Fatal("no segments found")
	}
	return best
}

// TestRotationWaitsForNewBytes: once the pending set alone is larger
// than a segment, a commit must not rotate — and rewrite that backlog
// — until SegmentBytes of new records have landed on top of it.
func TestRotationWaitsForNewBytes(t *testing.T) {
	const seg, k = 4096, 3
	j, _ := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: seg, NoSync: true})
	defer j.Close()
	for i := 0; i < 200; i++ {
		if err := j.Append(accepted(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	backlog := j.size
	j.mu.Unlock()
	if backlog <= seg {
		t.Fatalf("compacted backlog is %d bytes, want more than one %d-byte segment", backlog, seg)
	}
	before := j.Stats().Rotations
	var written int64
	for i := 1000; written < k*seg; i++ {
		recs := []Record{accepted(i), {Type: TypeDone, ID: accepted(i).ID}}
		if err := j.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			line, err := encodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			written += int64(len(line))
		}
	}
	if got := j.Stats().Rotations - before; got > k+1 {
		t.Fatalf("%d rotations for %d new bytes over %d-byte segments, want at most %d",
			got, written, seg, k+1)
	}
	if j.Pending() != 200 {
		t.Fatalf("pending %d, want the 200-record backlog", j.Pending())
	}
}
