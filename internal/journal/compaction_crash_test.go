package journal

// Compaction is the journal's only destructive operation: it rewrites
// the pending set into a fresh segment and then deletes history. The
// broad chaos suite (chaos_test.go) crashes at every op of a mixed
// workload; the tests here aim the crash exclusively at the compaction
// window — every filesystem op between entering Compact (or the
// rotation that triggers it) and its return — where the exact
// recovered state is predictable and can be asserted record-for-record:
//
//   - no resurrection: a job whose done record was acknowledged before
//     the window never replays as incomplete, no matter which removal
//     or rewrite op the crash lands on;
//   - no loss: the still-incomplete jobs replay with their request
//     payloads intact — either from the rewritten live segment or from
//     the old segments the crash preserved;
//   - self-healing: the recovered journal compacts back down to one
//     segment on a healthy filesystem.

import (
	"fmt"
	"strings"
	"testing"

	"starperf/internal/fsx"
)

// The compaction workloads complete jobs 0..5 and leave 6 and 7
// in flight.
const (
	compactDone = 6
	compactLive = 8
)

// runCompactionPrelude drives the fault-free part of the workload:
// every op here happens before the crash window, so each append must
// be acknowledged.
func runCompactionPrelude(t *testing.T, j *Journal) {
	t.Helper()
	for i := 0; i < compactLive; i++ {
		if err := j.Append(accepted(i)); err != nil {
			t.Fatalf("pre-window accept %d failed: %v", i, err)
		}
	}
	for i := 0; i < compactDone; i++ {
		if err := j.Append(Record{Type: TypeDone, ID: accepted(i).ID}); err != nil {
			t.Fatalf("pre-window done %d failed: %v", i, err)
		}
	}
}

// checkCompactionRecovery asserts the exact post-crash replay: jobs
// 0..done-1 had acknowledged terminals before the window and must stay
// completed; job uncertain (when ≥ 0) had its terminal append cut off
// by the crash itself and may land either way; every later job must
// replay incomplete with its request payload intact.
func checkCompactionRecovery(t *testing.T, label string, rec *Recovery, done, uncertain int) {
	t.Helper()
	live := make(map[string]bool, len(rec.Incomplete))
	for _, r := range rec.Incomplete {
		live[r.ID] = true
		if r.Kind != "predict" || len(r.Req) == 0 {
			t.Fatalf("%s: incomplete record lost its payload: %+v", label, r)
		}
	}
	for i := 0; i < done; i++ {
		if live[accepted(i).ID] {
			t.Fatalf("%s: completed job %d resurrected by the crash", label, i)
		}
	}
	liveFrom := done
	if uncertain >= 0 {
		liveFrom = uncertain + 1
	}
	for i := liveFrom; i < compactLive; i++ {
		if !live[accepted(i).ID] {
			t.Fatalf("%s: incomplete job %d lost in the crash (live=%v)",
				label, i, rec.Incomplete)
		}
	}
	wantLive := compactLive - liveFrom
	if uncertain >= 0 && live[accepted(uncertain).ID] {
		wantLive++
	}
	if len(live) != wantLive {
		t.Fatalf("%s: replay invented jobs: %+v", label, rec.Incomplete)
	}
}

// recoverAndRecompact reopens the wreck on a healthy filesystem,
// checks the replayed state, then proves the journal self-heals: a
// clean compaction drops it back to one segment holding exactly the
// incomplete jobs.
func recoverAndRecompact(t *testing.T, label, dir string, done, uncertain int) {
	t.Helper()
	j, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("%s: recovery open failed: %v", label, err)
	}
	defer j.Close()
	checkCompactionRecovery(t, label, rec, done, uncertain)
	if err := j.Compact(); err != nil {
		t.Fatalf("%s: recovered journal cannot compact: %v", label, err)
	}
	st := j.Stats()
	if st.Segments != 1 {
		t.Fatalf("%s: %d segments after healing compaction, want 1", label, st.Segments)
	}
	if st.Pending != len(rec.Incomplete) {
		t.Fatalf("%s: healing compaction changed the pending set: %d -> %d",
			label, len(rec.Incomplete), st.Pending)
	}
}

// TestCompactionCrashExplicit measures the filesystem-op window of two
// back-to-back explicit Compacts with a fault-free probe run — the
// second rewrites the pending set the first just wrote and removes
// the segment that first one produced — then replays the identical
// workload once per op in that window with the crash aimed at it.
func TestCompactionCrashExplicit(t *testing.T) {
	probe := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
	j, _, err := Open(Options{Dir: t.TempDir(), FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	runCompactionPrelude(t, j)
	before := probe.Ops()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	mid := probe.Ops()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after := probe.Ops()
	j.Close()
	if mid-before < 4 {
		t.Fatalf("compaction window too small to be interesting: ops %d..%d", before, mid)
	}

	for crash := before + 1; crash <= after; crash++ {
		crash := crash
		t.Run(fmt.Sprintf("crash@%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1, CrashAt: crash})
			j, _, err := Open(Options{Dir: dir, FS: fa})
			if err != nil {
				t.Fatal(err)
			}
			runCompactionPrelude(t, j)
			if got := fa.Ops(); got != before {
				t.Fatalf("crash run diverged from probe: %d ops before Compact, want %d", got, before)
			}
			firstErr := j.Compact()
			if crash <= mid && firstErr == nil {
				t.Fatal("a crash inside the first compaction went unreported")
			}
			if err := j.Compact(); err == nil {
				t.Fatal("a crash inside the compaction window went unreported")
			}
			j.Close() // fails post-crash; the wreck on disk is what matters
			recoverAndRecompact(t, fmt.Sprintf("crash@%d", crash), dir, compactDone, -1)
		})
	}
}

// TestCompactionCrashDuringRotation aims the crash at the compactions
// that rotation itself triggers: the probe run finds the terminal
// appends that rotate and the op window from the first of them to the
// end of the last, then each crash point in that window is replayed.
// The second rotation compacts a segment that is itself the first
// one's compaction output. A terminal append acknowledged before the
// crash is durable (its write and fsync precede the rotation, whose
// failure Append swallows); the first unacknowledged one may land
// either way; everything after it must replay incomplete.
func TestCompactionCrashDuringRotation(t *testing.T) {
	// Sized so the eight accepts fit in the first segment and the
	// terminal phase rotates twice. A rotation waits for SegmentBytes
	// of new records on top of the compacted pending set, so the
	// terminals are failed records whose message outweighs an accepted
	// record. The probe run below verifies both, so a drift in record
	// size fails loudly rather than silently mistargeting the window.
	const segBytes = 1000
	terminal := func(i int) Record {
		return Record{Type: TypeFailed, ID: accepted(i).ID,
			Err: "simulate: aborted by the watchdog: " + strings.Repeat("stalled hop; ", 32)}
	}
	open := func(dir string, fa *fsx.Faulty) *Journal {
		t.Helper()
		j, _, err := Open(Options{Dir: dir, FS: fa, SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Probe: find the rotating appends and the window they span.
	probe := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
	j := open(t.TempDir(), probe)
	for i := 0; i < compactLive; i++ {
		if err := j.Append(accepted(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Rotations != 0 {
		t.Fatalf("segments of %d bytes rotate during the accept phase; raise segBytes", segBytes)
	}
	first, last, before, after := -1, -1, 0, 0
	for i := 0; i < compactDone; i++ {
		pre, rotations := probe.Ops(), j.Stats().Rotations
		if err := j.Append(terminal(i)); err != nil {
			t.Fatal(err)
		}
		if j.Stats().Rotations > rotations {
			if first < 0 {
				first, before = i, pre
			}
			last, after = i, probe.Ops()
		}
	}
	rotations := j.Stats().Rotations
	j.Close()
	if rotations < 2 {
		t.Fatalf("workload rotated %d times over %d-byte segments, want 2", rotations, segBytes)
	}

	for crash := before + 1; crash <= after; crash++ {
		crash := crash
		t.Run(fmt.Sprintf("crash@%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1, CrashAt: crash})
			j := open(dir, fa)
			for i := 0; i < compactLive; i++ {
				if err := j.Append(accepted(i)); err != nil {
					t.Fatalf("pre-window accept %d failed: %v", i, err)
				}
			}
			for i := 0; i < first; i++ {
				if err := j.Append(terminal(i)); err != nil {
					t.Fatalf("pre-window terminal %d failed: %v", i, err)
				}
			}
			// Inside the window: the crashed op is either an append's
			// own write or sync (Append errors, the record may have
			// landed) or an op of a rotation (Append swallows the
			// failure and returns nil); every later append fails.
			done, uncertain := last+1, -1
			for i := first; i <= last; i++ {
				if err := j.Append(terminal(i)); err != nil && uncertain < 0 {
					done, uncertain = i, i
				}
			}
			j.Close()
			if !fa.Crashed() {
				t.Fatal("crash point inside the window never fired")
			}
			recoverAndRecompact(t, fmt.Sprintf("crash@%d", crash), dir, done, uncertain)
		})
	}
}
