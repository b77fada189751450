package main

import (
	"context"
	"fmt"
	"testing"

	"starperf/internal/cache"
	"starperf/internal/jobs"
)

// The serve suite: microbenchmarks of the serving layer's hot paths —
// content hashing (every request pays it), the two-tier cache, and
// the job pool's dispatch round trip.

// serveRequest is a representative predict request body for the
// hashing benchmark (shape matches internal/server's wire schema).
func serveRequest(i int) map[string]any {
	return map[string]any{
		"topo":    map[string]any{"kind": "star", "n": 5},
		"routing": "",
		"v":       6,
		"msg_len": 32,
		"rate":    0.004 + float64(i%7)*1e-6,
	}
}

func serveBenches() ([]bench, error) {
	memCache, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	hot, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}
	hot.Put("sha256:hot", val)
	pool := jobs.NewPool(jobs.PoolConfig{Workers: 4, QueueDepth: 64})

	return []bench{
		{variant{Name: "hash_predict"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := jobs.Hash("predict", serveRequest(i)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{variant{Name: "cache_put_get_1k"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("sha256:%032x", i%128)
				memCache.Put(key, val)
				if _, ok := memCache.Get(key); !ok {
					b.Fatal("put entry missing")
				}
			}
		}},
		{variant{Name: "cache_hit_1k"}, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := hot.Get("sha256:hot"); !ok {
					b.Fatal("hot entry missing")
				}
			}
		}},
		{variant{Name: "pool_do_roundtrip"}, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Do(ctx, "bench", func(context.Context) (any, error) {
					return i, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}
