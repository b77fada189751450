package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"starperf/internal/hypercube"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
)

// modelGoldenCase is one configuration of the cross-commit model
// golden: the SHA-256 over the bits of every Result field must never
// change unless the model's arithmetic is meant to change.
type modelGoldenCase struct {
	name string
	cfg  Config
	want string
}

// goldenStarRate is a light-to-moderate load per star size (M=16):
// every case converges below saturation.
var goldenStarRate = map[int]float64{3: 0.02, 4: 0.02, 5: 0.015, 6: 0.008, 7: 0.004}

func modelGoldenCases(t *testing.T) []modelGoldenCase {
	t.Helper()
	want := map[string]string{
		"S3/NHop/window":                      "a79f98091914a9eaaf9d0ab2b0112b690beba89397cd7bfb07cf5c5ddad4eb5d",
		"S3/NHop/paper-inside-power":          "a79f98091914a9eaaf9d0ab2b0112b690beba89397cd7bfb07cf5c5ddad4eb5d",
		"S3/NHop/paper-outside-power":         "a79f98091914a9eaaf9d0ab2b0112b690beba89397cd7bfb07cf5c5ddad4eb5d",
		"S3/Nbc/window":                       "eb118093390e9aa1a5785544d5b9fa90ceb1ebd08495ad901ec514d4185e434e",
		"S3/Nbc/paper-inside-power":           "eb118093390e9aa1a5785544d5b9fa90ceb1ebd08495ad901ec514d4185e434e",
		"S3/Nbc/paper-outside-power":          "eb118093390e9aa1a5785544d5b9fa90ceb1ebd08495ad901ec514d4185e434e",
		"S3/Enhanced-Nbc/window":              "eb118093390e9aa1a5785544d5b9fa90ceb1ebd08495ad901ec514d4185e434e",
		"S3/Enhanced-Nbc/paper-inside-power":  "af870c077172e0964d4ac76eccb67eb628de8958b7a4ebb60fea91b57e932a65",
		"S3/Enhanced-Nbc/paper-outside-power": "af870c077172e0964d4ac76eccb67eb628de8958b7a4ebb60fea91b57e932a65",
		"S4/NHop/window":                      "242b50a328a02e0b338ccc4842b074bda705bee26e5bf83e13fa3d1e8ec3fe63",
		"S4/NHop/paper-inside-power":          "242b50a328a02e0b338ccc4842b074bda705bee26e5bf83e13fa3d1e8ec3fe63",
		"S4/NHop/paper-outside-power":         "242b50a328a02e0b338ccc4842b074bda705bee26e5bf83e13fa3d1e8ec3fe63",
		"S4/Nbc/window":                       "8dcc22b5275cbfbc0beb1512e9eaf7131fd81f1a1cc2a402b5a9903c0963464a",
		"S4/Nbc/paper-inside-power":           "8dcc22b5275cbfbc0beb1512e9eaf7131fd81f1a1cc2a402b5a9903c0963464a",
		"S4/Nbc/paper-outside-power":          "8dcc22b5275cbfbc0beb1512e9eaf7131fd81f1a1cc2a402b5a9903c0963464a",
		"S4/Enhanced-Nbc/window":              "8dcc22b5275cbfbc0beb1512e9eaf7131fd81f1a1cc2a402b5a9903c0963464a",
		"S4/Enhanced-Nbc/paper-inside-power":  "c0e248bee8449a353e029e4689b30f33f778bb71bc22ca86f7a11da9449f7024",
		"S4/Enhanced-Nbc/paper-outside-power": "f60dc3cac9eb2119e5b20a17d72d8ae2fbe9e6eb69c572fea693d3abeb700627",
		"S5/NHop/window":                      "7d91c602198927b5de8a65b2f529c680dc485a9f02119d4a88590b29bdf3b4da",
		"S5/NHop/paper-inside-power":          "7d91c602198927b5de8a65b2f529c680dc485a9f02119d4a88590b29bdf3b4da",
		"S5/NHop/paper-outside-power":         "7d91c602198927b5de8a65b2f529c680dc485a9f02119d4a88590b29bdf3b4da",
		"S5/Nbc/window":                       "248e5cee0d3bc368bafa8263af715a80a894f3e853f09f4ab9173466d69a297f",
		"S5/Nbc/paper-inside-power":           "248e5cee0d3bc368bafa8263af715a80a894f3e853f09f4ab9173466d69a297f",
		"S5/Nbc/paper-outside-power":          "248e5cee0d3bc368bafa8263af715a80a894f3e853f09f4ab9173466d69a297f",
		"S5/Enhanced-Nbc/window":              "248e5cee0d3bc368bafa8263af715a80a894f3e853f09f4ab9173466d69a297f",
		"S5/Enhanced-Nbc/paper-inside-power":  "d43df116b767461b53970287e944b45f64fcd149f813b72b8d26af5299849d41",
		"S5/Enhanced-Nbc/paper-outside-power": "bad20ff85cd483384630c0c98bd59d33e9d536f9d492af9ec95ddea2b52c1056",
		"S6/NHop/window":                      "7d00f78a17b2bf32f6bb9f727105670fda23b6c4d332cc46af26d8928a92c99e",
		"S6/NHop/paper-inside-power":          "7d00f78a17b2bf32f6bb9f727105670fda23b6c4d332cc46af26d8928a92c99e",
		"S6/NHop/paper-outside-power":         "7d00f78a17b2bf32f6bb9f727105670fda23b6c4d332cc46af26d8928a92c99e",
		"S6/Nbc/window":                       "bd715448af58514559565d87b1a4e3bfa613426d26668f345ab2fa7c1b11a889",
		"S6/Nbc/paper-inside-power":           "bd715448af58514559565d87b1a4e3bfa613426d26668f345ab2fa7c1b11a889",
		"S6/Nbc/paper-outside-power":          "bd715448af58514559565d87b1a4e3bfa613426d26668f345ab2fa7c1b11a889",
		"S6/Enhanced-Nbc/window":              "bd715448af58514559565d87b1a4e3bfa613426d26668f345ab2fa7c1b11a889",
		"S6/Enhanced-Nbc/paper-inside-power":  "9c88c32811c1e7a13c98e76b437e99618b5153f00eca7c3d424b9a20f5e0ef4c",
		"S6/Enhanced-Nbc/paper-outside-power": "64f788197abf1f3fc62f1d94366faff67c960bc218d494a97756e3260d268a12",
		"S7/NHop/window":                      "f7984bf5eba7bb1a934867c6953be59ddb6475f46220652f94c1f661ba509042",
		"S7/NHop/paper-inside-power":          "f7984bf5eba7bb1a934867c6953be59ddb6475f46220652f94c1f661ba509042",
		"S7/NHop/paper-outside-power":         "f7984bf5eba7bb1a934867c6953be59ddb6475f46220652f94c1f661ba509042",
		"S7/Nbc/window":                       "d9be2475d3ea9958447196f037858919a61ec10b78f4ebe3de464ca88e210b7b",
		"S7/Nbc/paper-inside-power":           "d9be2475d3ea9958447196f037858919a61ec10b78f4ebe3de464ca88e210b7b",
		"S7/Nbc/paper-outside-power":          "d9be2475d3ea9958447196f037858919a61ec10b78f4ebe3de464ca88e210b7b",
		"S7/Enhanced-Nbc/window":              "d9be2475d3ea9958447196f037858919a61ec10b78f4ebe3de464ca88e210b7b",
		"S7/Enhanced-Nbc/paper-inside-power":  "b5b1cd505e9afc9511aacc41cd679e6e71d6e53ba95299b6e4d61232f178c1f9",
		"S7/Enhanced-Nbc/paper-outside-power": "676f192c1c5ad3fdec71cccf22d22b1cb8472bf25b97c7e100f089feda9e8a3d",
		"S5/cut-through":                      "78312eaa4122052cb2caf660faf595826588b32ab9180202c0a37f5e20015970",
		"S5/exponential-variance":             "6daa7e2478d663bc45ca4a15678f725c52803923c98312df70fe692b2ebeda10",
		"S5/deterministic-variance":           "c8aa9d466202ddab51a769660d75606db5ccdc62a234f2de83bba2e31c5b224a",
		"S5/single-output":                    "e0833796c2dcffd69ecdef1371eb4628c5f03549d100724268ee70fad8182c66",
		"S5/fixed-occupancy":                  "d9f4609f898d2697a11669b2e9b51b08fbf05688104de569effabc5d6eaf5b90",
		"Q5":                                  "98e9a38d003cdbba871d03462d2597ef20af58619cfe4ab201193bb68be07662",
		"Q6":                                  "5dd2ea0da479d03cd29ee52c61c7d76d59e8ab3e781dc6b2a0e25b8752f28381",
		"Q7":                                  "98c2aeafbae430460f24058a06916c09ad39ce612589de1c15dce9eeb5f859f0",
		"T4x2":                                "da4260b1851633e8520c52c203b51b2c37e3a186b2f0b92d39fb8e772338e4ec",
		"T8x3":                                "e78083f963711adc5284cccb5a702d0400de653112474e16143a2dc1db2f9cbc",
	}
	var cases []modelGoldenCase
	add := func(name string, cfg Config) {
		cases = append(cases, modelGoldenCase{name: name, cfg: cfg, want: want[name]})
	}
	kinds := []routing.Kind{routing.NHop, routing.Nbc, routing.EnhancedNbc}
	modes := []BlockingModel{Window, PaperInsidePower, PaperOutsidePower}
	for n := 3; n <= 7; n++ {
		g := stargraph.MustNew(n)
		sp := mustStarPaths(t, n)
		v := topology.MinEscapeVCs(g.Diameter()) + 2
		for _, k := range kinds {
			for _, b := range modes {
				add(fmt.Sprintf("S%d/%s/%s", n, k, b), Config{
					Paths: sp, Top: g, Kind: k, V: v, MsgLen: 16,
					Rate: goldenStarRate[n], Blocking: b,
				})
			}
		}
	}
	s5 := stargraph.MustNew(5)
	base := Config{Paths: mustStarPaths(t, 5), Top: s5, Kind: routing.EnhancedNbc,
		V: 6, MsgLen: 32, Rate: 0.008}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	add("S5/cut-through", with(func(c *Config) { c.Switching, c.Rate = CutThrough, 0.012 }))
	add("S5/exponential-variance", with(func(c *Config) { c.Variance = ExponentialVariance }))
	add("S5/deterministic-variance", with(func(c *Config) { c.Variance = DeterministicVariance }))
	add("S5/single-output", with(func(c *Config) { c.SingleOutput = true }))
	add("S5/fixed-occupancy", with(func(c *Config) {
		c.FixedOccupancy = []float64{0.55, 0.2, 0.1, 0.07, 0.05, 0.02, 0.01}
	}))
	for m := 5; m <= 7; m++ {
		cp, err := NewCubePaths(m)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("Q%d", m), Config{Paths: cp, Top: hypercube.MustNew(m),
			Kind: routing.EnhancedNbc, V: 6, MsgLen: 16, Rate: 0.01})
	}
	for _, kn := range [][2]int{{4, 2}, {8, 3}} {
		tp, err := NewTorusPaths(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		top := torus.MustNew(kn[0], kn[1])
		add(fmt.Sprintf("T%dx%d", kn[0], kn[1]), Config{Paths: tp, Top: top,
			Kind: routing.EnhancedNbc, V: topology.MinEscapeVCs(top.Diameter()) + 2,
			MsgLen: 16, Rate: 0.004})
	}
	return cases
}

// resultHash hashes math.Float64bits of every float field of r, its
// integer and boolean fields, and every per-class record.
func resultHash(r *Result) string {
	h := sha256.New()
	f := func(x float64) { writeU64(h, math.Float64bits(x)) }
	for _, x := range []float64{r.Latency, r.NetLatency, r.SourceWait, r.ChannelWait,
		r.Multiplexing, r.ChannelRate, r.Utilization, r.MeanBlocking} {
		f(x)
	}
	writeU64(h, uint64(len(r.VCOccupancy)))
	for _, p := range r.VCOccupancy {
		f(p)
	}
	writeU64(h, uint64(r.Iterations))
	if r.Converged {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	writeU64(h, uint64(len(r.PerClass)))
	for _, c := range r.PerClass {
		h.Write([]byte(c.Label))
		writeU64(h, uint64(c.H))
		f(c.Weight)
		f(c.NetLatency)
		f(c.Blocking)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}

// TestModelGoldenFingerprints pins the model's output bit for bit
// across commits: a performance change to the path dynamic program
// or the blocking evaluator must leave every hash untouched.
func TestModelGoldenFingerprints(t *testing.T) {
	for _, tc := range modelGoldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Evaluate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultHash(r); got != tc.want {
				t.Errorf("golden hash %s, want %s", got, tc.want)
			}
		})
	}
}
