package experiments

import (
	"fmt"

	"starperf/internal/hypercube"
	"starperf/internal/model"
	"starperf/internal/routing"
)

// StarVsHypercube runs the paper's stated future work: compare the
// 5-star (120 nodes, degree 4) against its nearest hypercube
// equivalent Q7 (128 nodes, degree 7) under the same routing scheme,
// message length and virtual-channel count, by both model and
// simulation. Rates sweep each network's own capacity so the curves
// are comparable as fractions of saturation.
func StarVsHypercube(msgLen, v, points int, opts SimOptions) (*Panel, error) {
	if points <= 0 {
		points = 8
	}
	starBase, star, err := starModel(5)
	if err != nil {
		return nil, err
	}
	cubePaths, err := model.NewCubePaths(7)
	if err != nil {
		return nil, err
	}
	cube := hypercube.MustNew(7)
	p := &Panel{
		Title:  fmt.Sprintf("Star S5 vs Hypercube Q7 (M=%d, V=%d, Enhanced-Nbc)", msgLen, v),
		XLabel: "traffic generation rate (messages/node/cycle)",
	}

	// capacity-proportional sweeps: λg_max ≈ degree/(d̄·M)
	starMax := 0.45 * float64(star.Degree()) / (star.AvgDistance() * float64(msgLen))
	cubeMax := 0.45 * float64(cube.Degree()) / (cube.AvgDistance() * float64(msgLen))

	star5 := Series{Name: "S5", V: v, MsgLen: msgLen, Kind: routing.EnhancedNbc}
	for _, r := range ratesUpTo(starMax, points) {
		star5.Points = append(star5.Points, Point{Rate: r})
	}
	q7 := Series{Name: "Q7", V: v, MsgLen: msgLen, Kind: routing.EnhancedNbc}
	for _, r := range ratesUpTo(cubeMax, points) {
		q7.Points = append(q7.Points, Point{Rate: r})
	}
	if err := runSweep(star, []*Series{&star5}, opts, nil); err != nil {
		return nil, err
	}
	if err := runSweep(cube, []*Series{&q7}, opts, nil); err != nil {
		return nil, err
	}
	if err := fillModel(&star5, starBase); err != nil {
		return nil, err
	}
	if err := fillModel(&q7, model.Config{Paths: cubePaths, Top: cube}); err != nil {
		return nil, err
	}
	p.Series = []Series{star5, q7}
	return p, nil
}
