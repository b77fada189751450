package model

import (
	"math"
	"testing"

	"starperf/internal/stargraph"
)

// FuzzStarBlockSum checks the flat cycle-type dynamic program against
// brute-force enumeration of every minimal path (ExactStarBlockSum)
// on S3–S5, for hop evaluators linear plus square-root in every Hop
// field with fuzzed coefficients. The tolerance is relative to the
// same sum with every coefficient made non-negative, the scale of the
// rounding error of any summation order.
func FuzzStarBlockSum(f *testing.F) {
	f.Add(uint8(5), uint16(7), true, 0.03, 0.011, 0.007, 0.0042, 0.0, 0.0, 0.0)
	f.Add(uint8(4), uint16(3), false, 0.1, -0.02, 0.5, -0.3, 0.25, 1.5, -0.75)
	f.Add(uint8(3), uint16(0), true, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	graphs := map[int]*stargraph.Graph{}
	paths := map[int]*StarPaths{}
	for n := 3; n <= 5; n++ {
		graphs[n] = stargraph.MustNew(n)
		sp, err := NewStarPaths(n)
		if err != nil {
			f.Fatal(err)
		}
		paths[n] = sp
	}
	f.Fuzz(func(t *testing.T, nb uint8, cls uint16, c0b bool, aF, aD, aN, aH, sF, sD, sN float64) {
		coef := []float64{aF, aD, aN, aH, sF, sD, sN}
		for _, c := range coef {
			if math.IsNaN(c) || math.Abs(c) > 1e6 {
				t.Skip("coefficient outside the evaluator's domain")
			}
		}
		n := 3 + int(nb)%3
		sp, g := paths[n], graphs[n]
		idx := int(cls) % len(sp.Classes())
		c0 := 0
		if c0b {
			c0 = 1
		}
		evalWith := func(c []float64) HopEvaluator {
			return func(h Hop) float64 {
				v := c[0]*float64(h.F) + c[1]*float64(h.D) + c[2]*float64(h.NegTaken) +
					c[4]*math.Sqrt(float64(h.F)) + c[5]*math.Sqrt(float64(h.D)) +
					c[6]*math.Sqrt(float64(h.NegTaken))
				if h.HopNeg {
					v += c[3]
				}
				return v
			}
		}
		abs := make([]float64, len(coef))
		for i, c := range coef {
			abs[i] = math.Abs(c)
		}
		eval := evalWith(coef)
		dp := sp.BlockSum(idx, c0, eval)
		exact := sp.ExactStarBlockSum(g, idx, c0, eval)
		scale := sp.ExactStarBlockSum(g, idx, c0, evalWith(abs))
		if math.Abs(dp-exact) > 1e-9*math.Max(1, scale) {
			t.Fatalf("S%d class %s c0=%d: DP %v, exact %v (scale %v)",
				n, sp.Classes()[idx].Label, c0, dp, exact, scale)
		}
	})
}
