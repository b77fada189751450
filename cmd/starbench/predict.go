package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
	"starperf/internal/torus"
)

// The predict suite: what a model miss costs — one analytical-model
// evaluation on S5, S7 and the 16-ary 4-cube (internal/model.Evaluate;
// the torus's 494 offset-vector classes make it the row that shows the
// path dynamic program's cost per class), and one S5
// /v1/predict through the server's handler whose rate is new on every
// request, so each one misses the cache and pays decode, hash,
// prepare, the evaluation and the encode.

func predictBenches() ([]bench, error) {
	// BenchmarkEvaluateS5/S7's operating points: Enhanced-Nbc, M=32,
	// below saturation
	var cfgs []named[model.Config]
	for _, c := range []struct {
		name string
		n, v int
		rate float64
	}{{"evaluate_s5", 5, 6, 0.01}, {"evaluate_s7", 7, 8, 0.002}} {
		sp, err := model.NewStarPaths(c.n)
		if err != nil {
			return nil, err
		}
		shape, err := stargraph.NewShape(c.n)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, named[model.Config]{c.name, model.Config{
			Paths: sp, Top: shape, Kind: routing.EnhancedNbc, V: c.v, MsgLen: 32, Rate: c.rate,
		}})
	}
	// Enhanced-Nbc on the 16-ary 4-cube needs V ≥ 18; at M=16 and this
	// rate the fixed point takes 9 iterations
	tp, err := model.NewTorusPaths(16, 4)
	if err != nil {
		return nil, err
	}
	top, err := torus.New(16, 4)
	if err != nil {
		return nil, err
	}
	cfgs = append(cfgs, named[model.Config]{"evaluate_t16x4", model.Config{
		Paths: tp, Top: top, Kind: routing.EnhancedNbc, V: 20, MsgLen: 16, Rate: 0.006,
	}})
	evals, err := evaluated(cfgs, model.Evaluate,
		func(name string, _ *model.Result) variant { return variant{Name: name} })
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	// every request is fresh: the rate steps by 1e-9 up to 1e6 times
	// per process, far below the S5 saturation rate
	body := func(i int) string {
		return fmt.Sprintf(`{"topo":{"kind":"star","n":5},"v":6,"msg_len":32,"rate":%.9f}`,
			0.004+float64(i%1_000_000)*1e-9)
	}
	next := 0
	miss := bench{variant{Name: "predict_miss_s5"}, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body(next)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("predict: HTTP %d: %s", rec.Code, rec.Body)
			}
			next++
		}
	}}
	return append(evals, miss), nil
}
