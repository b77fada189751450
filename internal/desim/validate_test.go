package desim

import (
	"strings"
	"testing"

	"starperf/internal/hypercube"
	"starperf/internal/routing"
	"starperf/internal/topology"
)

// emptyTop is a pathological zero-node topology used to exercise
// config validation.
type emptyTop struct{}

func (emptyTop) Name() string                             { return "empty" }
func (emptyTop) N() int                                   { return 0 }
func (emptyTop) Degree() int                              { return 0 }
func (emptyTop) Neighbor(node, dim int) int               { return -1 }
func (emptyTop) Distance(a, b int) int                    { return -1 }
func (emptyTop) ProfitableDims(c, d int, buf []int) []int { return buf }
func (emptyTop) Color(node int) int                       { return 0 }
func (emptyTop) Diameter() int                            { return 0 }
func (emptyTop) AvgDistance() float64                     { return 0 }

var _ topology.Topology = emptyTop{}

// TestConfigValidate drives every rejection branch of
// Config.validate and pins the error messages users debug against.
func TestConfigValidate(t *testing.T) {
	top := hypercube.MustNew(3)
	good := func() Config {
		return Config{
			Top:           top,
			Spec:          routing.MustNew(routing.NHop, top, 4),
			Rate:          0.01,
			MsgLen:        8,
			MeasureCycles: 1000,
		}
	}
	if _, err := Run(good()); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"nil topology", func(c *Config) { c.Top = nil }, "nil topology"},
		{"zero-node topology", func(c *Config) { c.Top = emptyTop{} }, `topology "empty" has no nodes`},
		{"no VCs", func(c *Config) { c.Spec = routing.Spec{} }, "no virtual channels"},
		{"too many VCs", func(c *Config) { c.Spec = routing.MustNew(routing.NHop, top, MaxVCs+1) },
			"65 virtual channels per physical channel, at most 64"},
		{"negative rate", func(c *Config) { c.Rate = -0.1 }, "negative rate"},
		{"zero message length", func(c *Config) { c.MsgLen = 0 }, "message length 0"},
		{"oversize message", func(c *Config) { c.MsgLen = 1 << 15 }, "too large"},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }, "negative WarmupCycles -1"},
		{"zero measure window", func(c *Config) { c.MeasureCycles = 0 }, "MeasureCycles 0 must be positive"},
		{"negative measure window", func(c *Config) { c.MeasureCycles = -5 }, "MeasureCycles -5 must be positive"},
		{"negative drain", func(c *Config) { c.DrainCycles = -1 }, "negative DrainCycles -1"},
		{"negative deadlock threshold", func(c *Config) { c.DeadlockThreshold = -2 }, "negative DeadlockThreshold -2"},
		{"negative max message age", func(c *Config) { c.MaxMsgAge = -3 }, "negative MaxMsgAge -3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestMaxVCsRuns drives the widest supported channel, whose owned-VC
// mask uses all 64 bits, under the structural self-checks.
func TestMaxVCsRuns(t *testing.T) {
	top := hypercube.MustNew(3)
	res, err := Run(Config{
		Top:           top,
		Spec:          routing.MustNew(routing.EnhancedNbc, top, MaxVCs),
		Rate:          0.05,
		MsgLen:        16,
		Seed:          3,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Paranoid:      true,
		ParanoidEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || !res.Drained || res.MeasuredDelivered == 0 {
		t.Fatalf("V=%d run unhealthy: deadlocked=%v drained=%v delivered=%d",
			MaxVCs, res.Deadlocked, res.Drained, res.MeasuredDelivered)
	}
}
