package experiments

import (
	"bytes"
	"strings"
	"testing"

	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

func TestThroughputCurve(t *testing.T) {
	g := stargraph.MustNew(4)
	opts := fastOpts()
	opts.Measure = 8000
	// S4 with V=5, M=16 has a physical capacity ceiling of
	// (n−1)/(d̄·M) ≈ 0.074 msg/node/cycle; sweep well past it.
	rows, err := ThroughputSweep(ThroughputConfig{
		Top: g, Kind: routing.EnhancedNbc, V: 5, MsgLen: 16,
		Points: 6, MaxRate: 0.12, Sim: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// accepted tracks offered at light load
	if r := rows[0]; r.Accepted < 0.8*r.Offered || r.Accepted > 1.2*r.Offered {
		t.Fatalf("light load accepted %v vs offered %v", r.Accepted, r.Offered)
	}
	// accepted never exceeds offered by more than noise, and the heavy
	// end must fall short of offered (saturation plateau)
	last := rows[len(rows)-1]
	if last.Accepted > last.Offered*1.05 {
		t.Fatalf("accepted %v above offered %v", last.Accepted, last.Offered)
	}
	if !last.Saturated && last.Accepted > 0.97*last.Offered {
		t.Fatalf("expected saturation at offered %v (accepted %v)", last.Offered, last.Accepted)
	}
	peak := SaturationThroughput(rows)
	if peak <= 0 || peak > 0.12 {
		t.Fatalf("peak throughput %v", peak)
	}
	var buf bytes.Buffer
	RenderThroughput(&buf, rows)
	if !strings.Contains(buf.String(), "peak accepted throughput") {
		t.Fatal("rendering missing summary line")
	}
}

func TestThroughputRejectsBadSpec(t *testing.T) {
	g := stargraph.MustNew(4)
	if _, err := ThroughputSweep(ThroughputConfig{
		Top: g, Kind: routing.EnhancedNbc, V: 2, MsgLen: 16,
		Points: 3, MaxRate: 0.01, Sim: fastOpts(),
	}); err == nil {
		t.Fatal("V below minimum accepted")
	}
}

func TestASCIIPlot(t *testing.T) {
	p := &Panel{
		Title: "test plot",
		Series: []Series{{
			Name: "M=32",
			Points: []Point{
				{Rate: 0.002, Sim: 40, Model: 39},
				{Rate: 0.004, Sim: 55, Model: 50},
				{Rate: 0.006, Sim: 80, Model: 70},
				{Rate: 0.008, Sim: 4000, Model: 100}, // clamped outlier
			},
		}},
	}
	var buf bytes.Buffer
	RenderASCIIPlot(&buf, p, 40, 12)
	out := buf.String()
	for _, want := range []string{"test plot", "o", ".", "^", "M=32"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+12+3 {
		t.Fatalf("plot has %d lines", len(lines))
	}
	// empty panel
	buf.Reset()
	RenderASCIIPlot(&buf, &Panel{Title: "empty"}, 40, 12)
	if !strings.Contains(buf.String(), "no finite points") {
		t.Fatal("empty panel not handled")
	}
}

func TestTailLatency(t *testing.T) {
	g := stargraph.MustNew(5)
	opts := fastOpts()
	opts.Seeds = []uint64{3}
	rows, err := TailLatency(g, routing.EnhancedNbc, 6, 32, 4, 0.014, opts)
	if err != nil {
		t.Fatal(err)
	}
	prevRatio := 0.0
	for i, r := range rows {
		if !(r.P50 <= r.P95 && r.P95 <= r.P99 && float64(r.P99) <= r.Max+1) {
			t.Fatalf("percentiles disordered at rate %v: %+v", r.Rate, r)
		}
		ratio := float64(r.P99) / float64(r.P50)
		if i > 0 && ratio < prevRatio*0.9 {
			t.Fatalf("tail ratio fell sharply with load: %v after %v", ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// tails must widen from the lightest to the heaviest point
	first := float64(rows[0].P99) / float64(rows[0].P50)
	last := float64(rows[len(rows)-1].P99) / float64(rows[len(rows)-1].P50)
	if last <= first {
		t.Fatalf("P99/P50 did not widen with load (%v -> %v)", first, last)
	}
	var buf bytes.Buffer
	RenderTails(&buf, rows)
	if !strings.Contains(buf.String(), "p99") {
		t.Fatal("rendering broken")
	}
}

func TestLevelUsageImbalance(t *testing.T) {
	opts := fastOpts()
	opts.Seeds = []uint64{9}
	rows, err := LevelUsage(6, 32, 0.008, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	nhop, nbc, enbc := rows[0], rows[1], rows[2]
	// NHop hammers low levels (the paper's §3 complaint); bonus cards
	// spread the load, so NHop's imbalance must dominate Nbc's.
	if nhop.Imbalance < 4*nbc.Imbalance {
		t.Fatalf("NHop imbalance %.1f not well above Nbc's %.1f",
			nhop.Imbalance, nbc.Imbalance)
	}
	// Enhanced-Nbc routes most hops on class a
	if enbc.ClassAShare < 0.5 {
		t.Fatalf("Enhanced-Nbc class-a share %.2f", enbc.ClassAShare)
	}
	for _, r := range rows {
		var sum float64
		for _, s := range r.Share {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%v shares sum to %v", r.Kind, sum)
		}
	}
	var buf bytes.Buffer
	RenderLevels(&buf, rows)
	if !strings.Contains(buf.String(), "imbalance") {
		t.Fatal("rendering broken")
	}
}
