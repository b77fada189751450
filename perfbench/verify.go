package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"starperf/client"
	"starperf/internal/bounds"
	"starperf/internal/desim"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

// The reference functions evaluate a request by calling the layer
// directly, the way the wire schema defines each result field, so a
// served body can be compared with them field for field. The generator
// only emits star topologies with the default EnhancedNbc routing.

func referencePredict(r server.PredictRequest) (*client.PredictResult, error) {
	top, err := stargraph.New(r.Topo.N)
	if err != nil {
		return nil, err
	}
	paths, err := model.NewStarPaths(r.Topo.N)
	if err != nil {
		return nil, err
	}
	res, err := model.Evaluate(model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc, V: r.V, MsgLen: r.MsgLen, Rate: r.Rate})
	if errors.Is(err, model.ErrSaturated) {
		return &client.PredictResult{Saturated: true}, nil
	}
	if err != nil {
		return nil, err
	}
	return &client.PredictResult{
		LatencyCycles: res.Latency, NetLatency: res.NetLatency, SourceWait: res.SourceWait,
		ChannelWait: res.ChannelWait, Multiplexing: res.Multiplexing, Utilization: res.Utilization,
		MeanBlocking: res.MeanBlocking, Converged: res.Converged,
	}, nil
}

func referenceBounds(r server.BoundsRequest) (*client.BoundsResult, error) {
	top, err := stargraph.New(r.Topo.N)
	if err != nil {
		return nil, err
	}
	res, err := bounds.Evaluate(bounds.Config{Top: top, Kind: routing.EnhancedNbc, V: r.V, MsgLen: r.MsgLen, Rate: r.Rate, BufCap: r.BufCap, LinkBW: r.LinkBW})
	if errors.Is(err, bounds.ErrUnboundable) {
		return &client.BoundsResult{Unboundable: true}, nil
	}
	if err != nil {
		return nil, err
	}
	out := &client.BoundsResult{
		WorstBound: res.WorstCase, Utilization: res.Utilization, HopDelay: res.HopDelay, Residual: res.Residual,
		Feedforward: res.Feedforward, Iterations: res.Iterations, Flows: res.Flows, Channels: res.Channels,
	}
	for _, fb := range res.Classes {
		out.Classes = append(out.Classes, client.BoundsClass{Hops: fb.Hops, Flows: fb.Flows, Bound: fb.Bound})
	}
	return out, nil
}

func referenceSimulate(r server.SimulateRequest) (*client.SimulateResult, error) {
	top, err := stargraph.New(r.Topo.N)
	if err != nil {
		return nil, err
	}
	spec, err := routing.New(routing.EnhancedNbc, top, r.V)
	if err != nil {
		return nil, err
	}
	res, err := desim.Run(desim.Config{Top: top, Spec: spec, Rate: r.Rate, MsgLen: r.MsgLen, BufCap: r.BufCap, Seed: r.Seed,
		WarmupCycles: r.Warmup, MeasureCycles: r.Measure, DrainCycles: r.Drain, MaxMsgAge: r.MaxMsgAge})
	if err != nil {
		return nil, err
	}
	out := &client.SimulateResult{
		MeanLatency: res.Latency.Mean(), MinLatency: res.Latency.Min(), MaxLatency: res.Latency.Max(),
		Measured: res.MeasuredDelivered, Delivered: res.Delivered,
		AcceptedRate: float64(res.DeliveredInWindow) / float64(r.Measure) / float64(top.N()),
		Cycles:       res.Cycles, Saturated: res.Saturated(), Aborted: res.Aborted, AbortReason: res.AbortReason,
	}
	if res.LatencyHist != nil && res.LatencyHist.Total() > 0 {
		out.P50Latency = res.LatencyHist.Quantile(0.50)
		out.P95Latency = res.LatencyHist.Quantile(0.95)
		out.P99Latency = res.LatencyHist.Quantile(0.99)
	}
	return out, nil
}

// reference evaluates a predict, bounds or simulate request directly.
func reference(req any) (any, error) {
	switch r := req.(type) {
	case server.PredictRequest:
		return referencePredict(r)
	case server.BoundsRequest:
		return referenceBounds(r)
	case server.SimulateRequest:
		return referenceSimulate(r)
	}
	return nil, fmt.Errorf("no reference for %T", req)
}

// compareResult decodes a served result body into the type of ref and
// requires every field to equal ref's. A field the body carries that
// the reference does not know is a mismatch too.
func compareResult(body []byte, ref any) error {
	got := reflect.New(reflect.TypeOf(ref).Elem())
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(got.Interface()); err != nil {
		return fmt.Errorf("decoding served result: %w", err)
	}
	if !reflect.DeepEqual(got.Interface(), ref) {
		want, _ := json.Marshal(ref)
		return fmt.Errorf("served %s, direct evaluation gives %s", body, want)
	}
	return nil
}

// checkReference compares one served body with a direct evaluation
// of its request, recording any mismatch.
func checkReference(c *checks, req any, body []byte) {
	ref, err := reference(req)
	if err != nil {
		c.fail("reference evaluation of %T: %v", req, err)
		return
	}
	if err := compareResult(body, ref); err != nil {
		c.fail("%T: %v", req, err)
	}
}
