package obs

import (
	"bytes"
	"testing"

	"starperf/internal/desim"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// testConfig mirrors the S_4 workload of the desim determinism gate so
// the observer is exercised against a known-good reference run.
func testConfig(c *Collector) desim.Config {
	s4 := stargraph.MustNew(4)
	return desim.Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 4),
		Policy:        routing.PreferClassA,
		Rate:          0.02,
		MsgLen:        8,
		Seed:          12345,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
		Observer:      c,
	}
}

// TestCollectorCountsMatchResult cross-checks the event-derived
// lifecycle counters against the simulator's own statistics: every
// generate/deliver event must be seen exactly once, and every
// delivered message acquires the ejection channel exactly once.
func TestCollectorCountsMatchResult(t *testing.T) {
	c := New(Options{})
	res, err := desim.Run(testConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.Generated != uint64(res.Generated) {
		t.Errorf("observer saw %d generate events, Result.Generated = %d", ct.Generated, res.Generated)
	}
	if ct.Delivered != uint64(res.Delivered) {
		t.Errorf("observer saw %d deliver events, Result.Delivered = %d", ct.Delivered, res.Delivered)
	}
	// Every delivery is preceded by exactly one ejection grant; a few
	// messages can hold an ejection VC at run end without having
	// delivered their tail yet.
	if ct.Ejection.Grants < ct.Delivered || ct.Ejection.Grants > ct.Injected {
		t.Errorf("ejection grants = %d, want within [delivered=%d, injected=%d]",
			ct.Ejection.Grants, ct.Delivered, ct.Injected)
	}
	if ct.Injected < ct.Delivered {
		t.Errorf("injected (%d) < delivered (%d)", ct.Injected, ct.Delivered)
	}
	total := ct.Total()
	if total.Grants == 0 {
		t.Fatal("no network grants observed")
	}
	// Each injected message takes ≥1 network hop on S_4 under uniform
	// traffic minus self-addressed messages; grants must at least cover
	// the delivered messages.
	if total.Grants < ct.Delivered {
		t.Errorf("network grants (%d) < delivered (%d)", total.Grants, ct.Delivered)
	}
	for i, h := range ct.PerHop {
		if p := h.BlockProb(); p < 0 {
			t.Errorf("hop %d: negative block probability %g", i, p)
		}
		if h.WaitSum > 0 && h.Blocked == 0 {
			t.Errorf("hop %d: wait recorded without a blocking episode", i)
		}
	}
}

// TestCollectorGauges checks the fixed-interval sampling contract:
// cadence, bounds and the per-channel busy fractions.
func TestCollectorGauges(t *testing.T) {
	c := New(Options{SampleEvery: 128})
	res, err := desim.Run(testConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.SampleEvery != 128 {
		t.Fatalf("SampleEvery = %d, want 128", m.SampleEvery)
	}
	if len(m.Samples) == 0 {
		t.Fatal("no gauge samples collected")
	}
	wantSamples := int(res.Cycles/128) + 1 // cycle 0 is sampled too
	if len(m.Samples) != wantSamples {
		t.Errorf("collected %d samples over %d cycles, want %d", len(m.Samples), res.Cycles, wantSamples)
	}
	for i, s := range m.Samples {
		if i > 0 && s.Cycle != m.Samples[i-1].Cycle+128 {
			t.Fatalf("sample %d at cycle %d, previous at %d: cadence broken", i, s.Cycle, m.Samples[i-1].Cycle)
		}
		if s.ChanUtil < 0 || s.ChanUtil > 1 {
			t.Errorf("sample %d: ChanUtil %g out of [0,1]", i, s.ChanUtil)
		}
		if s.VCOccupancy < 0 || s.VCOccupancy > 1 {
			t.Errorf("sample %d: VCOccupancy %g out of [0,1]", i, s.VCOccupancy)
		}
		if s.ClassABusy+s.ClassBBusy > 0 && s.BusyChannels == 0 {
			t.Errorf("sample %d: busy VCs without busy channels", i)
		}
	}
	// S_4: 24 nodes, degree 3, slots 5.
	if want := 24 * 5; len(m.ChannelBusy) != want {
		t.Fatalf("ChannelBusy has %d entries, want %d", len(m.ChannelBusy), want)
	}
	sawBusy := false
	for ch, f := range m.ChannelBusy {
		if f < 0 || f > 1 {
			t.Errorf("channel %d: busy fraction %g out of [0,1]", ch, f)
		}
		if f > 0 {
			sawBusy = true
		}
		// Injection/ejection slots are never counted as network-busy.
		if slot := ch % 5; slot >= 3 && f != 0 {
			t.Errorf("non-network channel %d (slot %d) has busy fraction %g", ch, slot, f)
		}
	}
	if !sawBusy {
		t.Error("no network channel ever sampled busy")
	}
	sum := c.Summary()
	if sum.Samples != len(m.Samples) {
		t.Errorf("Summary.Samples = %d, want %d", sum.Samples, len(m.Samples))
	}
	if sum.MeanChanUtil <= 0 || sum.PeakChanUtil < sum.MeanChanUtil {
		t.Errorf("implausible utilization summary: mean %g, peak %g", sum.MeanChanUtil, sum.PeakChanUtil)
	}
}

// TestTraceRing checks the bounded ring: it retains the most recent
// window in emission order and counts evictions.
func TestTraceRing(t *testing.T) {
	c := New(Options{TraceCap: 100})
	if _, err := desim.Run(testConfig(c)); err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if len(tr) != 100 {
		t.Fatalf("ring holds %d events, want 100", len(tr))
	}
	if c.TraceDropped() == 0 {
		t.Fatal("expected evictions from a 100-event ring over a 6000-cycle run")
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Cycle < tr[i-1].Cycle {
			t.Fatalf("ring out of order: event %d at cycle %d after cycle %d", i, tr[i].Cycle, tr[i-1].Cycle)
		}
	}
}

// TestTraceDisabled checks that a negative TraceCap records nothing.
func TestTraceDisabled(t *testing.T) {
	c := New(Options{TraceCap: -1})
	if _, err := desim.Run(testConfig(c)); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Trace()); n != 0 {
		t.Fatalf("tracing disabled but ring holds %d events", n)
	}
	if c.TraceDropped() != 0 {
		t.Fatalf("tracing disabled but %d drops counted", c.TraceDropped())
	}
	if len(c.Counters().PerHop) == 0 {
		t.Fatal("counters must keep accumulating with tracing disabled")
	}
}

// TestExportDeterministic runs the same configuration twice and
// requires byte-identical exports — the artifact-level extension of
// the simulator's determinism gate.
func TestExportDeterministic(t *testing.T) {
	render := func() (series, hops, trace []byte) {
		c := New(Options{SampleEvery: 200, TraceCap: 256})
		if _, err := desim.Run(testConfig(c)); err != nil {
			t.Fatal(err)
		}
		var b1, b2, b3 bytes.Buffer
		if err := c.Metrics().WriteSeriesCSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := c.Counters().WriteHopCSV(&b2); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteTraceJSONL(&b3); err != nil {
			t.Fatal(err)
		}
		return b1.Bytes(), b2.Bytes(), b3.Bytes()
	}
	s1, h1, t1 := render()
	s2, h2, t2 := render()
	for _, cmp := range []struct {
		name string
		a, b []byte
	}{
		{"series CSV", s1, s2},
		{"hop CSV", h1, h2},
		{"trace JSONL", t1, t2},
	} {
		if !bytes.Equal(cmp.a, cmp.b) {
			t.Errorf("%s differs between identical runs", cmp.name)
		}
		if len(cmp.a) == 0 {
			t.Errorf("%s is empty", cmp.name)
		}
	}
	// Spot-check the JSONL shape: every line is a JSON object.
	for _, line := range bytes.Split(bytes.TrimSpace(t1), []byte("\n")) {
		if len(line) == 0 || line[0] != '{' || line[len(line)-1] != '}' {
			t.Fatalf("malformed JSONL line: %q", line)
		}
	}
}

// TestBlockReasonSplit drives the network hard enough to block and
// checks the reason split stays consistent with the totals.
func TestBlockReasonSplit(t *testing.T) {
	c := New(Options{})
	cfg := testConfig(c)
	cfg.Rate = 0.12 // near saturation for S_4 at V=4
	cfg.DrainCycles = 20000
	if _, err := desim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	var byReason uint64
	for _, n := range ct.ByReason {
		byReason += n
	}
	episodes := ct.Total().Blocked + ct.Ejection.Blocked
	if byReason != episodes {
		t.Errorf("reason split sums to %d, episodes total %d", byReason, episodes)
	}
	if episodes == 0 {
		t.Fatal("near-saturation run produced no blocking episodes")
	}
	if ct.ByReason[routing.BlockNone] != 0 {
		t.Errorf("%d episodes tagged BlockNone", ct.ByReason[routing.BlockNone])
	}
	if ct.FlapDenials != ct.ByReason[routing.BlockLinkDown] {
		t.Errorf("FlapDenials = %d, ByReason[link-down] = %d", ct.FlapDenials, ct.ByReason[routing.BlockLinkDown])
	}
	if ct.Total().WaitSum == 0 {
		t.Error("blocking episodes recorded but zero aggregate wait")
	}
}
