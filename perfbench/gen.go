package main

import (
	"time"

	"starperf/client"
	"starperf/internal/jobs"
	"starperf/internal/server"
	"starperf/internal/traffic"
)

// Every request the program sees is generated here from the run seed
// with traffic.RNG, the paper's own source model: Poisson arrivals
// (ExpInterval) and uniform choices.

const (
	// syncRate is the offered load of predict-open and ring3-predict,
	// in requests per second.
	syncRate = 1000.0
	// hotSetSize distinct predicts are warmed during set-up; hotShare
	// of the stream picks uniformly among them.
	hotSetSize = 64
	hotShare   = 0.9
	// freshPredictShare of the remaining (miss) requests are fresh S5
	// predicts, the rest fresh S4 bounds.
	freshPredictShare = 0.7

	// jobSubmitRate is the offered jobs-async submission rate per
	// second. Every batchEvery-th submission is a batch of batchItems
	// simulate jobs, the others single /v1/simulate jobs: together
	// about 64 jobs/s. A fixed cadence, not a random share, keeps the
	// number of batch bursts in a run the same from seed to seed.
	jobSubmitRate = 52.0
	batchEvery    = 64
	batchItems    = 16
)

// belowSaturation returns a per-node message rate that lies below the
// model's saturation point for every star size (S4, S5) and virtual
// channel count (6, 9, 12) the generator uses at message length m.
func belowSaturation(m int) float64 {
	if m >= 64 {
		return 0.008
	}
	return 0.015
}

// syncOp is one predict or bounds request.
type syncOp struct {
	kind    string // "predict" or "bounds"
	predict server.PredictRequest
	bounds  server.BoundsRequest
	// id is the expected content id, known up front for the hot set;
	// fresh ids are checked after the phase.
	id   string
	hot  bool
	node int // target node on a ring
}

// request returns the operation's wire request and content-hash kind.
func (op syncOp) request() (string, any) {
	if op.kind == "bounds" {
		return op.kind, op.bounds
	}
	return op.kind, op.predict
}

func clientTopo(t server.TopoSpec) client.TopoSpec { return client.TopoSpec{Kind: t.Kind, N: t.N} }

func clientPredict(r server.PredictRequest) client.PredictRequest {
	return client.PredictRequest{Topo: clientTopo(r.Topo), Routing: r.Routing, V: r.V, MsgLen: r.MsgLen, Rate: r.Rate}
}

func clientBounds(r server.BoundsRequest) client.BoundsRequest {
	return client.BoundsRequest{Topo: clientTopo(r.Topo), Routing: r.Routing, V: r.V, MsgLen: r.MsgLen, Rate: r.Rate, BufCap: r.BufCap, LinkBW: r.LinkBW}
}

func clientSimulate(r server.SimulateRequest) client.SimulateRequest {
	return client.SimulateRequest{Topo: clientTopo(r.Topo), Routing: r.Routing, V: r.V, MsgLen: r.MsgLen, Rate: r.Rate,
		BufCap: r.BufCap, Seed: r.Seed, Warmup: r.Warmup, Measure: r.Measure, Drain: r.Drain}
}

var (
	vcChoices  = []int{6, 9, 12}
	lenChoices = []int{32, 64}
)

// hotSet returns hotSetSize distinct predicts over S4/S5 × V × M with
// seeded rates, each with its content id.
func hotSet(rng *traffic.RNG) ([]syncOp, error) {
	out := make([]syncOp, hotSetSize)
	for i := range out {
		n := 4 + i%2
		v := vcChoices[(i/2)%len(vcChoices)]
		m := lenChoices[(i/6)%len(lenChoices)]
		req := server.PredictRequest{Topo: server.TopoSpec{Kind: "star", N: n}, V: v, MsgLen: m,
			Rate: belowSaturation(m) * (0.05 + 0.55*rng.Float64())}
		id, err := jobs.Hash("predict", req)
		if err != nil {
			return nil, err
		}
		out[i] = syncOp{kind: "predict", predict: req, id: id, hot: true}
	}
	return out, nil
}

// syncStream draws the predict-open / ring3-predict request mix.
type syncStream struct {
	rng   *traffic.RNG
	hot   []syncOp
	nodes int
}

func (s *syncStream) next() syncOp {
	var op syncOp
	v := vcChoices[s.rng.Intn(len(vcChoices))]
	m := lenChoices[s.rng.Intn(len(lenChoices))]
	switch u := s.rng.Float64(); {
	case u < hotShare:
		op = s.hot[s.rng.Intn(len(s.hot))]
	case u < hotShare+(1-hotShare)*freshPredictShare:
		op = syncOp{kind: "predict", predict: server.PredictRequest{Topo: server.TopoSpec{Kind: "star", N: 5},
			V: v, MsgLen: m, Rate: belowSaturation(m) * (0.05 + 0.55*s.rng.Float64())}}
	default:
		op = syncOp{kind: "bounds", bounds: server.BoundsRequest{Topo: server.TopoSpec{Kind: "star", N: 4},
			V: v, MsgLen: m, Rate: belowSaturation(m) * (0.05 + 0.25*s.rng.Float64()), BufCap: 2, LinkBW: 1}}
	}
	op.node = s.rng.Intn(s.nodes)
	return op
}

// submission is one jobs-async submission: a single /v1/simulate job
// or a /v1/jobs:batch of batchItems jobs.
type submission struct {
	batch bool
	items []server.SimulateRequest
}

// jobStream draws jobs-async submissions. Every job is a fresh S4
// EnhancedNbc simulation of about 5k cycles with its own seed, so the
// simulator really runs for each.
type jobStream struct {
	rng *traffic.RNG
	n   int // submissions drawn
}

// next draws the next submission of the open-loop mix.
func (s *jobStream) next() submission {
	s.n++
	if s.n%batchEvery == 0 {
		return s.batch()
	}
	return submission{items: s.jobs(1)}
}

// batch draws one batch submission.
func (s *jobStream) batch() submission { return submission{batch: true, items: s.jobs(batchItems)} }

func (s *jobStream) jobs(n int) []server.SimulateRequest {
	out := make([]server.SimulateRequest, n)
	for i := range out {
		out[i] = server.SimulateRequest{Topo: server.TopoSpec{Kind: "star", N: 4}, V: 6, MsgLen: 32, Rate: 0.005,
			BufCap: 2, Seed: s.rng.Uint64() | 1, Warmup: 1000, Measure: 4000, Drain: 20000}
	}
	return out
}

// poissonDues returns the release schedule of an open-loop phase:
// Poisson arrivals at rate per second over dur.
func poissonDues(rng *traffic.RNG, rate float64, dur time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpInterval(rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return dues
		}
		dues = append(dues, d)
	}
}
