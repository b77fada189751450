package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"starperf/internal/cfgerr"
	"starperf/internal/routing"
)

// fastOpts keeps test runtimes reasonable while still exercising the
// full pipeline; single seed, short windows.
func fastOpts() SimOptions {
	return SimOptions{Warmup: 3000, Measure: 10000, Drain: 40000, Seeds: []uint64{7, 8}}
}

func TestFigure1PanelA(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute soak under -race")
	}
	p, err := Figure1Panel(Figure1Config{Panel: 'a', Points: 5, Sim: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 || p.Series[0].Name != "M=32" || p.Series[1].Name != "M=64" {
		t.Fatalf("series: %+v", p.Series)
	}
	for _, s := range p.Series {
		if len(s.Points) != 5 {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
		if s.Points[0].Sim <= 0 {
			t.Fatalf("%s first point sim latency %v", s.Name, s.Points[0].Sim)
		}
		// first point must be comfortably below saturation both ways
		if s.Points[0].ModelSaturated || s.Points[0].SimSaturated {
			t.Fatalf("%s saturated at lightest load", s.Name)
		}
	}
	// the lightest point of M=64 must cost more than M=32's
	if p.Series[1].Points[0].Sim <= p.Series[0].Points[0].Sim {
		t.Fatal("M=64 not slower than M=32 at light load")
	}
	// rendering must produce non-trivial output in both formats
	var buf bytes.Buffer
	RenderPanel(&buf, p)
	if !strings.Contains(buf.String(), "Figure 1(a)") || buf.Len() < 200 {
		t.Fatal("panel rendering too small")
	}
	buf.Reset()
	RenderPanelCSV(&buf, p)
	if lines := strings.Count(buf.String(), "\n"); lines != 1+2*5 {
		t.Fatalf("CSV has %d lines", lines)
	}
}

func TestFigure1BadPanel(t *testing.T) {
	if _, err := Figure1Panel(Figure1Config{Panel: 'z', Points: 3, Sim: fastOpts()}); err == nil {
		t.Fatal("unknown panel accepted")
	}
}

func TestShapeChecksOnRealPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute soak under -race")
	}
	opts := fastOpts()
	opts.Seeds = []uint64{3, 4, 5}
	p, err := Figure1Panel(Figure1Config{Panel: 'a', Points: 6, Sim: opts})
	if err != nil {
		t.Fatal(err)
	}
	// 40% tolerance on the light half: the model is approximate, but
	// must be in the right neighbourhood.
	if bad := ShapeChecks(p, 0.40); len(bad) != 0 {
		var buf bytes.Buffer
		RenderPanel(&buf, p)
		t.Fatalf("shape violations: %v\n%s", bad, buf.String())
	}
}

func TestShapeChecksCatchesBrokenPanel(t *testing.T) {
	p := &Panel{Series: []Series{{
		Name: "M=32",
		Points: []Point{
			{Rate: 0.001, Model: 40, Sim: 40},
			{Rate: 0.002, Model: 400, Sim: 41}, // model wildly off, in the light half
			{Rate: 0.003, Model: 42, Sim: 42},
			{Rate: 0.004, Model: 43, Sim: 43},
		},
	}}}
	if bad := ShapeChecks(p, 0.4); len(bad) == 0 {
		t.Fatal("shape checks accepted a broken panel")
	}
}

func TestAblationMixtureRows(t *testing.T) {
	rows, err := AblationMixture(6, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Latency[0]) {
			continue
		}
		// Jensen: inside-power ≤ outside-power whenever both converge
		if !math.IsNaN(r.Latency[1]) && !math.IsNaN(r.Latency[2]) &&
			r.Latency[1] > r.Latency[2]+1e-6 {
			t.Fatalf("inside %v above outside %v at rate %v", r.Latency[1], r.Latency[2], r.Rate)
		}
	}
	var buf bytes.Buffer
	RenderMixture(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty mixture rendering")
	}
}

func TestAblationAlgorithmsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute soak under -race")
	}
	opts := fastOpts()
	p, err := AblationAlgorithms(6, 32, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 3 {
		t.Fatalf("%d series", len(p.Series))
	}
	// At the heaviest common stable load Enhanced-Nbc must beat NHop
	// (the result of the paper's ref. [13] that motivates the whole
	// modelling exercise).
	nhop, enbc := p.Series[0], p.Series[2]
	if nhop.Kind != routing.NHop || enbc.Kind != routing.EnhancedNbc {
		t.Fatal("series order unexpected")
	}
	idx := -1
	for j := range nhop.Points {
		if !nhop.Points[j].SimSaturated && !enbc.Points[j].SimSaturated {
			idx = j
		}
	}
	if idx < 0 {
		t.Fatal("no common stable point")
	}
	if enbc.Points[idx].Sim > nhop.Points[idx].Sim {
		t.Fatalf("Enhanced-Nbc (%.2f) slower than NHop (%.2f) at rate %.4f",
			enbc.Points[idx].Sim, nhop.Points[idx].Sim, nhop.Points[idx].Rate)
	}
}

func TestAblationSelectionRuns(t *testing.T) {
	p, err := AblationSelection(6, 32, 3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 3 {
		t.Fatalf("%d series", len(p.Series))
	}
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Sim <= 0 {
				t.Fatalf("%s: empty sim point", s.Name)
			}
		}
	}
}

func TestStarVsHypercube(t *testing.T) {
	opts := fastOpts()
	opts.Seeds = []uint64{11}
	p, err := StarVsHypercube(32, 6, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 || p.Series[0].Name != "S5" || p.Series[1].Name != "Q7" {
		t.Fatalf("series %+v", p.Series)
	}
	for _, s := range p.Series {
		if s.Points[0].SimSaturated || s.Points[0].ModelSaturated {
			t.Fatalf("%s saturated at lightest point", s.Name)
		}
		// model within 45% of sim at the lightest point
		rel := math.Abs(s.Points[0].Model-s.Points[0].Sim) / s.Points[0].Sim
		if rel > 0.45 {
			t.Fatalf("%s model off by %.0f%% at light load", s.Name, rel*100)
		}
	}
}

func TestValidationGridSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	opts := fastOpts()
	opts.Seeds = []uint64{1}
	opts.Measure = 6000
	rows, err := ValidationGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty grid")
	}
	sane := 0
	for _, r := range rows {
		if !math.IsNaN(r.ErrPct) && math.Abs(r.ErrPct) < 50 {
			sane++
		}
	}
	if sane < len(rows)/2 {
		t.Fatalf("only %d/%d grid rows within 50%%", sane, len(rows))
	}
	var buf bytes.Buffer
	RenderGrid(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty grid rendering")
	}
}

func TestSwitchingComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute soak under -race")
	}
	opts := fastOpts()
	opts.Seeds = []uint64{5}
	p, err := SwitchingComparison(6, 32, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 || p.Series[0].Name != "wormhole" || p.Series[1].Name != "cut-through" {
		t.Fatalf("series %+v", p.Series)
	}
	wh, vct := p.Series[0], p.Series[1]
	// the cut-through knee must lie beyond the wormhole knee, in both
	// model and simulation
	firstSat := func(s Series, model bool) int {
		for i, pt := range s.Points {
			if (model && pt.ModelSaturated) || (!model && pt.SimSaturated) {
				return i
			}
		}
		return len(s.Points)
	}
	if firstSat(vct, true) <= firstSat(wh, true) {
		t.Fatalf("VCT model knee (%d) not beyond wormhole's (%d)",
			firstSat(vct, true), firstSat(wh, true))
	}
	if firstSat(vct, false) < firstSat(wh, false) {
		t.Fatalf("VCT sim knee (%d) before wormhole's (%d)",
			firstSat(vct, false), firstSat(wh, false))
	}
}

func TestAblationVariance(t *testing.T) {
	rows, err := AblationVariance(6, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		p, e, d := r.Latency[0], r.Latency[1], r.Latency[2]
		// deterministic ≤ paper ≤ exponential wherever all converge:
		// the P-K wait is monotone in the variance, and
		// 0 ≤ (S̄−M)² ≤ S̄².
		if !math.IsNaN(d) && !math.IsNaN(p) && d > p+1e-9 {
			t.Fatalf("deterministic %v above paper %v at rate %v", d, p, r.Rate)
		}
		if !math.IsNaN(p) && !math.IsNaN(e) && p > e+1e-9 {
			t.Fatalf("paper %v above exponential %v at rate %v", p, e, r.Rate)
		}
	}
	// near the knee the choice must matter (>5% spread)
	last := rows[len(rows)-1]
	if !math.IsNaN(last.Latency[2]) && !math.IsNaN(last.Latency[1]) {
		if (last.Latency[1]-last.Latency[2])/last.Latency[2] < 0.05 {
			t.Fatalf("variance choice immaterial at the knee: %v", last.Latency)
		}
	}
	var buf bytes.Buffer
	RenderVariance(&buf, rows)
	if !strings.Contains(buf.String(), "exponential") {
		t.Fatal("rendering broken")
	}
}

// TestAblationsRejectInvalidConfig pins the model filler's error
// rule: only model.ErrSaturated marks a point saturated, so a
// zero-length message is reported as an invalid configuration instead
// of a table of "saturated" cells.
func TestAblationsRejectInvalidConfig(t *testing.T) {
	if _, err := AblationMixture(6, 0, 3); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("AblationMixture with M=0: %v, want cfgerr.ErrInvalid", err)
	}
	if _, err := AblationVariance(6, 0, 3); !errors.Is(err, cfgerr.ErrInvalid) {
		t.Fatalf("AblationVariance with M=0: %v, want cfgerr.ErrInvalid", err)
	}
}

func TestStarPanelS4(t *testing.T) {
	opts := fastOpts()
	opts.Seeds = []uint64{2}
	p, err := StarPanel(4, 5, []int{16}, 0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 1 || len(p.Series[0].Points) != 4 {
		t.Fatalf("panel shape: %+v", p.Series)
	}
	pt := p.Series[0].Points[0]
	if pt.Sim <= 0 || pt.ModelSaturated || math.IsNaN(pt.Model) {
		t.Fatalf("first point unhealthy: %+v", pt)
	}
	rel := math.Abs(pt.Model-pt.Sim) / pt.Sim
	if rel > 0.35 {
		t.Fatalf("S4 model off by %.0f%% at light load", rel*100)
	}
	if _, err := StarPanel(1, 5, []int{16}, 0, 3, opts); err == nil {
		t.Fatal("S1 accepted")
	}
}
