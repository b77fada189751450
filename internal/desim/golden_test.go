package desim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"starperf/internal/desim"
	"starperf/internal/faults"
	"starperf/internal/hypercube"
	"starperf/internal/mesh"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
	"starperf/internal/traffic"
)

// goldenCase is one configuration of the cross-commit simulator
// golden: the SHA-256 of its fingerprint and trace must never change
// unless the simulator's semantics are meant to change.
type goldenCase struct {
	name string
	cfg  desim.Config
	want string
}

// goldenCfg is the base S4-sized run the matrix varies: rate 0.02,
// M=8, 1000 warm-up + 5000 measured cycles; its hash covers the first
// goldenTraceCap lifecycle events.
func goldenCfg(top topology.Topology, kind routing.Kind, v int) desim.Config {
	return desim.Config{
		Top:           top,
		Spec:          routing.MustNew(kind, top, v),
		Rate:          0.02,
		MsgLen:        8,
		Seed:          12345,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
	}
}

// goldenTraceCap is how many lifecycle events each golden hash covers.
const goldenTraceCap = 64

func goldenCases(t *testing.T) []goldenCase {
	s4 := stargraph.MustNew(4)
	plan, err := faults.NewPlan(s4, 97, faults.Options{FailLinks: 1, Flaps: 1,
		FlapPeriod: 512, FlapDown: 128})
	if err != nil {
		t.Fatal(err)
	}
	faulted := faults.MustApply(s4, plan)
	with := func(cfg desim.Config, edit func(*desim.Config)) desim.Config {
		edit(&cfg)
		return cfg
	}
	base := goldenCfg(s4, routing.EnhancedNbc, 4)
	return []goldenCase{
		{"S4/NHop", goldenCfg(s4, routing.NHop, 4), "5399d1b1bd445613b81de72f7cbefdda10d2e4f1221252f4cf0991a4cc5f9a1a"},
		{"S4/Nbc", goldenCfg(s4, routing.Nbc, 4), "dcacc19427bd492b36d23699951f2ea4dcc56b2b022e1762a504dd63623d61c3"},
		{"S4/EnhancedNbc", base, "9984c1c14cdf8befb77738eb4641bfafe926b550459ac7ce2bca3d987d86c53c"},
		{"Q4/EnhancedNbc", goldenCfg(hypercube.MustNew(4), routing.EnhancedNbc, 4), "06db84f09af2699a0edde55f3b52d91f861380468a2d521d9335872ff50a77dd"},
		{"torus4x4/EnhancedNbc", goldenCfg(torus.MustNew(4, 2), routing.EnhancedNbc, 6), "820a1924d26c81b63d73d5990daf3ef830875d8bbf731b8d5dad356fffe6e35b"},
		{"mesh4x4/EnhancedNbc", goldenCfg(mesh.MustNew(4, 2), routing.EnhancedNbc, 6), "cfb780b51e9f5587498d50cffb15bdaa961a0d000cba103de89e06d0a467d3b1"},
		// the flap-driven misroute fallback
		{"S4-faulted/EnhancedNbc", goldenCfg(faulted, routing.EnhancedNbc, 6), "f65ebcd09d2014ab7c9ff9a84e8e20cf3dce36175406cefe591f7edc9041592e"},
		{"S4/RandomAny", with(base, func(c *desim.Config) { c.Policy = routing.RandomAny }), "2a9b075dc34f640c0a6e292ac224b2b5176d484cdd4f546b81577d6b27c6e4f9"},
		{"S4/LowestEscapeFirst", with(base, func(c *desim.Config) { c.Policy = routing.LowestEscapeFirst }), "3a19665191a2a31f77f9d9f8b8c3cda33179a29d232f04c410c871fc6e345357"},
		{"S4/FirstProfitable", with(base, func(c *desim.Config) { c.Policy = routing.FirstProfitable }), "1a803db7920a0544c4ba4987ef61ebcdcfd8298baf28c7ca9caa4b698dc76580"},
		{"S4/BufCap1", with(base, func(c *desim.Config) { c.BufCap = 1 }), "3c2cf6d24e4f154e2ca291ca7d12c88584176b30ba11c4f1362f6cd1619e1491"},
		{"S4/BufCap8", with(base, func(c *desim.Config) { c.BufCap = 8 }), "6b7a966d7bdd1f83835e73cae5e4e4849816cc67abac1bc9d669efaa6535be19"},
		{"S4/CutThrough", with(base, func(c *desim.Config) { c.CutThrough, c.Rate = true, 0.03 }), "b1e10b60b0c2fd1b8ee290479b3a7da9b3129165321b1102377342b48b263645"},
		// an over-age abort with its reconstructed stall trace
		{"S4/watchdog", with(base, func(c *desim.Config) { c.Rate, c.MaxMsgAge = 0.3, 120 }), "a2d82c6ef7ae490fd047806fc4bb61a28e83d127748e3f4053ba021dde9519a1"},
		{"S4/Bimodal", with(base, func(c *desim.Config) {
			c.LenDist = traffic.BimodalLen{Short: 4, Long: 24, PLong: 0.25}
		}), "00818ac480b85621d7c994e7b2aa512feebc831cde48a1b1f26303b1008288e0"},
		{"S4/OnOff", with(base, func(c *desim.Config) {
			c.NewArrivals = func(rng *traffic.RNG, rate float64) traffic.Arrivals {
				return traffic.NewOnOff(rng, rate, 6, 300)
			}
		}), "cb580692a742c57353182a58ebaebf6c70fa6b651da7082719a3cfedfa0e6348"},
		// MaxVCs: random choice over all 64 VCs puts owners on bit 63
		// of the owned mask and wraps the round-robin pointer
		{"S4/V64-RandomAny", with(goldenCfg(s4, routing.EnhancedNbc, 64), func(c *desim.Config) {
			c.Policy, c.Rate = routing.RandomAny, 0.08
		}), "fb22ecac2e9fea7460e06889daef8e591f4785666378f8ce88b19d48220133e4"},
		// heavy multiplexing just below saturation: many owned VCs per
		// channel compete for each flit slot
		{"S4/V16-near-saturation", with(goldenCfg(s4, routing.EnhancedNbc, 16), func(c *desim.Config) { c.Rate = 0.1 }), "a4f54190ff956ebca726f0d4a3f7e3693103d425847aeda284713a5cd7391e23"},
		{"S4/BufCap1-high-load", with(base, func(c *desim.Config) { c.BufCap, c.Rate = 1, 0.06 }), "5679e3a1484095d37446d8650cde73401e4d340f0943aa5f6c7eb1106334d290"},
		// lengths past the 16384-flit clamp: int16 sent and length
		// counters at their largest values
		{"S4/LenClamp", with(base, func(c *desim.Config) {
			c.Rate = 0.01
			c.LenDist = traffic.BimodalLen{Short: 8, Long: 20000, PLong: 0.002}
		}), "d81649cc762eb903073bad00d855e699f13f96b667e0419eda0db344e45cb2e3"},
		// the /v1/simulate job the jobs-async end-to-end workload submits
		{"S4/jobs-async", jobsAsyncConfig(401), "4cbd19b8612c1e8b84b4ec7f49ca499495971758af988ddd646d8dbd1e1aee21"},
	}
}

// goldenHash hashes a run's fingerprint, its recorded lifecycle events
// and its stall trace.
func goldenHash(t *testing.T, res *desim.Result, events []desim.Event) string {
	t.Helper()
	h := sha256.New()
	h.Write(desim.Fingerprint(t, res))
	for _, evs := range [][]desim.Event{events, res.StallTrace} {
		for _, ev := range evs {
			if err := binary.Write(h, binary.LittleEndian, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimGoldenFingerprints pins the simulator's output across
// commits: TestDeterminismByteIdentical only compares two runs of one
// build, so a change that alters every run the same way passes it.
// Each case's hash covers every statistic of the Result and the first
// 64 lifecycle events, and must come out the same with the obs
// collector attached; the unobserved run must match its fingerprint. A
// performance change to the simulator must leave every hash untouched.
func TestSimGoldenFingerprints(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			res, rec, err := desim.RunRecorded(tc.cfg, goldenTraceCap)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered == 0 {
				t.Fatal("no deliveries: the hash covers empty statistics")
			}
			got := goldenHash(t, res, rec.Events)
			plain, err := desim.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(desim.Fingerprint(t, res), desim.Fingerprint(t, plain)) {
				t.Fatal("attaching the event recorder changed the result")
			}
			observed := tc.cfg
			observed.Observer = obs.New(obs.Options{})
			resObs, recObs, err := desim.RunRecorded(observed, goldenTraceCap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(desim.Fingerprint(t, res), desim.Fingerprint(t, resObs)) {
				t.Fatal("attaching the observer changed the result")
			}
			if gotObs := goldenHash(t, resObs, recObs.Events); gotObs != got {
				t.Fatalf("attaching the observer changed the hash: %s vs %s", gotObs, got)
			}
			if got != tc.want {
				t.Errorf("golden hash %s, want %s", got, tc.want)
			}
		})
	}
}
