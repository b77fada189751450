package server

import (
	"runtime"
	"testing"
)

// TestPredictStarRunnerAllocs: a star predict reads four numbers of
// the topology (name, degree, diameter, mean distance), so its runner
// must not build the n!-node graph. On S9 that graph alone is ~83 MB
// of allocation; the whole evaluation must stay under 1 MB.
func TestPredictStarRunnerAllocs(t *testing.T) {
	run, err := PredictRequest{
		Topo: TopoSpec{Kind: "star", N: 9}, V: 8, MsgLen: 32, Rate: 0.001,
	}.withDefaults().prepare()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.(*PredictResult); r.Saturated || !r.Converged {
		t.Fatalf("S9 predict did not converge: %+v", r)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("S9 predict runner allocated %d bytes, want < 1 MB", got)
	}
}

// TestPredictLargeTorusPrepareCheap: prepare runs on the handler
// goroutine before the cache lookup and pool admission, so the path
// structure it builds must stay linear in the torus's offset-vector
// states. The 64-ary 4-cube (2^24 nodes, the largest torus.New takes)
// has 58,905 states; per-class reachable-state lists would hold ~7.8e8
// entries (~3 GB).
func TestPredictLargeTorusPrepareCheap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := PredictRequest{
		Topo: TopoSpec{Kind: "torus", K: 64, Dim: 4}, V: 8, MsgLen: 32, Rate: 0.0001,
	}.withDefaults().prepare()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Fatalf("64-ary 4-cube predict prepare allocated %d bytes, want < 64 MB", got)
	}
	t.Logf("allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
}
