package journal

// The journal chaos suite: deterministic fault plans (internal/fsx)
// drive the WAL through every crash point and through seeded EIO /
// short-write / fsync-failure storms, and each surviving state is
// re-opened with a healthy filesystem to check the recovery
// invariants:
//
//  1. acknowledged durability — a job whose accepted append returned
//     nil, with no terminal append attempted, MUST replay as
//     incomplete;
//  2. terminal monotonicity — a job whose done/failed append returned
//     nil MUST NOT replay as incomplete;
//  3. no invention — every replayed id is one the workload submitted;
//  4. unacknowledged appends may land either way (the bytes may or
//     may not have reached the disk), but never as garbage: a record
//     either replays intact or is skipped by its checksum.
//
// No assertion reads the wall clock, and every fault decision is
// seed-drawn, so a failure reproduces exactly.

import (
	"fmt"
	"testing"

	"starperf/internal/fsx"
)

// chaosSegmentBytes is smaller than any one commit of the chaos
// workloads, so every commit rotates: a segment rotates only once it
// holds SegmentBytes beyond the pending set its compaction rewrote,
// and the crash-at-every-op runs want rotation and compaction at
// every point of the workload.
const chaosSegmentBytes = 64

// chaosWorkload drives one journal through two waves of a fixed
// lifecycle mix — per wave six jobs, four done, one failed, one left
// incomplete — with small segments so rotation and compaction fall
// inside the fault window. The first wave's incomplete job stays
// pending through every compaction of the second, which rewrites it
// together with that wave's own pending set. It records which appends
// were acknowledged.
type chaosWorkload struct {
	ackAccepted  map[string]bool
	tryAccepted  map[string]bool
	ackTerminal  map[string]bool
	tryTerminal  map[string]bool
	expectedLive map[string]bool // incomplete ids of an undisturbed run
}

func runChaosWorkload(j *Journal) *chaosWorkload {
	w := &chaosWorkload{
		ackAccepted:  make(map[string]bool),
		tryAccepted:  make(map[string]bool),
		ackTerminal:  make(map[string]bool),
		tryTerminal:  make(map[string]bool),
		expectedLive: map[string]bool{accepted(5).ID: true, accepted(11).ID: true},
	}
	app := func(r Record, try, ack map[string]bool) {
		try[r.ID] = true
		if err := j.Append(r); err == nil {
			ack[r.ID] = true
		}
	}
	for base := 0; base < 12; base += 6 {
		for i := base; i < base+6; i++ {
			app(accepted(i), w.tryAccepted, w.ackAccepted)
		}
		for i := base; i < base+6; i++ {
			j.Append(Record{Type: TypeStarted, ID: accepted(i).ID})
		}
		for i := base; i < base+4; i++ {
			app(Record{Type: TypeDone, ID: accepted(i).ID}, w.tryTerminal, w.ackTerminal)
		}
		app(Record{Type: TypeFailed, ID: accepted(base + 4).ID, Err: "chaos"}, w.tryTerminal, w.ackTerminal)
	}
	return w
}

// checkRecovery asserts the recovery invariants against what the
// workload observed.
func checkRecovery(t *testing.T, label string, w *chaosWorkload, rec *Recovery) {
	t.Helper()
	live := make(map[string]bool, len(rec.Incomplete))
	for _, r := range rec.Incomplete {
		live[r.ID] = true
		if !w.tryAccepted[r.ID] {
			t.Fatalf("%s: replay invented job %s", label, r.ID)
		}
		if r.Kind != "predict" || len(r.Req) == 0 {
			t.Fatalf("%s: replayed record lost its payload: %+v", label, r)
		}
	}
	for id := range w.ackAccepted {
		if !w.tryTerminal[id] && !live[id] {
			t.Fatalf("%s: acknowledged accept of %s lost (invariant 1)", label, id)
		}
	}
	for id := range w.ackTerminal {
		if live[id] {
			t.Fatalf("%s: job %s replayed incomplete after acknowledged terminal (invariant 2)", label, id)
		}
	}
}

// TestChaosJournalCrashAtEveryOp kills the filesystem at every
// possible mutating operation of the workload in turn, then recovers
// each wreck with a healthy filesystem. Every crash point must leave
// a recoverable journal that honours the invariants.
func TestChaosJournalCrashAtEveryOp(t *testing.T) {
	// A fault-free instrumented run fixes the op-count domain.
	probe := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
	j, _, err := Open(Options{Dir: t.TempDir(), FS: probe, SegmentBytes: chaosSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	w := runChaosWorkload(j)
	j.Close()
	totalOps := probe.Ops()
	if totalOps < 20 {
		t.Fatalf("workload too small to be interesting: %d ops", totalOps)
	}
	checkRecovery(t, "fault-free", w, reopenClean(t, j.opts.Dir))

	for crash := 1; crash <= totalOps; crash++ {
		crash := crash
		t.Run(fmt.Sprintf("crash@%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1, CrashAt: crash})
			j, _, err := Open(Options{Dir: dir, FS: fa, SegmentBytes: chaosSegmentBytes})
			if err != nil {
				// Crashed before the journal existed: nothing was
				// acknowledged, nothing to recover.
				return
			}
			w := runChaosWorkload(j)
			j.Close() // post-crash close fails; that's the point
			checkRecovery(t, fmt.Sprintf("crash@%d", crash), w, reopenClean(t, dir))
		})
	}
}

// TestChaosJournalFaultStorm runs the workload under seeded random
// write/sync/rename failures (no crash), recovers, and checks the
// invariants. The same seed must produce the same wreck twice.
func TestChaosJournalFaultStorm(t *testing.T) {
	type outcome struct {
		acks int
		live []string
	}
	run := func(seed uint64) outcome {
		dir := t.TempDir()
		fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{
			Seed: seed, PWrite: 0.15, PSync: 0.1, PRename: 0.2, ShortWrites: true,
		})
		j, _, err := Open(Options{Dir: dir, FS: fa, SegmentBytes: chaosSegmentBytes})
		if err != nil {
			// The plan can kill journal creation itself; nothing to check.
			return outcome{acks: -1}
		}
		w := runChaosWorkload(j)
		j.Close()
		rec := reopenClean(t, dir)
		checkRecovery(t, fmt.Sprintf("storm seed %d", seed), w, rec)
		out := outcome{acks: len(w.ackAccepted) + len(w.ackTerminal)}
		for _, r := range rec.Incomplete {
			out.live = append(out.live, r.ID)
		}
		return out
	}
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := run(seed), run(seed)
		if a.acks != b.acks || len(a.live) != len(b.live) {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, a, b)
		}
		for i := range a.live {
			if a.live[i] != b.live[i] {
				t.Fatalf("seed %d recovered different sets: %v vs %v", seed, a.live, b.live)
			}
		}
	}
}

// reopenClean recovers dir with a healthy filesystem and returns the
// replay summary.
func reopenClean(t *testing.T, dir string) *Recovery {
	t.Helper()
	j, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	j.Close()
	return rec
}
