package server

import (
	"errors"
	"runtime"
	"testing"

	"starperf/internal/cfgerr"
	"starperf/internal/wire"
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
	if r := res.(*wire.PredictResult); r.Saturated || !r.Converged {
		t.Fatalf("S9 predict did not converge: %+v", r)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("S9 predict runner allocated %d bytes, want < 1 MB", got)
	}
}

// TestPredictLargeTorusPrepareCheap: prepare runs on the handler
// goroutine before the cache lookup and pool admission, so the path
// structure it builds must stay linear in the torus's offset-vector
// states, and a torus the run would refuse, or whose path structure
// would be huge, must be refused before any of them are built. The
// 64-ary 4-cube (2^24 nodes, the largest torus.New takes) has 58,905
// states. The 64-ary 5-cube (2^30 nodes), which torus.New refuses, has
// 435,897. The 8192-ary 2-cube and the 2^26-ary ring, which torus.New
// takes, have 8.4M and 33.5M.
func TestPredictLargeTorusPrepareCheap(t *testing.T) {
	for _, c := range []struct {
		k, dim int
		limit  uint64
		fails  bool
	}{{64, 4, 64 << 20, false}, {64, 5, 8 << 20, true}, {8192, 2, 8 << 20, true}, {1 << 26, 1, 8 << 20, true}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := PredictRequest{
			Topo: TopoSpec{Kind: "torus", K: c.k, Dim: c.dim}, V: 8, MsgLen: 32, Rate: 0.0001,
		}.withDefaults().prepare()
		runtime.ReadMemStats(&after)
		switch {
		case c.fails && !errors.Is(err, cfgerr.ErrInvalid):
			t.Fatalf("%d-ary %d-cube prepare: err %v, want an invalid-config error", c.k, c.dim, err)
		case !c.fails && err != nil:
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= c.limit {
			t.Fatalf("%d-ary %d-cube predict prepare allocated %d bytes, want < %d MB", c.k, c.dim, got, c.limit>>20)
		}
		t.Logf("%d-ary %d-cube: allocated %d bytes", c.k, c.dim, after.TotalAlloc-before.TotalAlloc)
	}
}
