package main

import (
	"testing"

	"starperf/internal/journal"
)

// TestAppendPairsLeavesNothingPending: the 64-appender workload of
// append_fsync_batch64 completes every job it accepts, so the pending
// set that each compaction rewrites stays empty however long the
// benchmark runs.
func TestAppendPairsLeavesNothingPending(t *testing.T) {
	j, _, err := journal.Open(journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendPairs(t, j, 4096)
	if n := j.Pending(); n != 0 {
		t.Fatalf("%d jobs still pending after 2048 accept/done pairs", n)
	}
}
