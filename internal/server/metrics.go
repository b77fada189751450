package server

import (
	"sort"
	"sync"
	"time"

	"starperf/internal/obs"
	"starperf/internal/stats"
)

// routeAgg accumulates one route's request statistics.
type routeAgg struct {
	count  uint64
	errors uint64
	lat    stats.Latency
}

// metrics tracks per-route latency histograms and error counts for
// GET /metricsz.
type metrics struct {
	mu     sync.Mutex
	routes map[string]*routeAgg
}

func newMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeAgg)}
}

// observe records one finished request.
func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	agg := m.routes[route]
	if agg == nil {
		agg = &routeAgg{}
		m.routes[route] = agg
	}
	agg.count++
	if status >= 400 {
		agg.errors++
	}
	agg.lat.Add(d)
	m.mu.Unlock()
}

// report snapshots every route, sorted by route for deterministic
// output.
func (m *metrics) report() []obs.RouteStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.RouteStats, 0, len(names))
	for _, name := range names {
		agg := m.routes[name]
		out = append(out, obs.RouteStats{
			Route:      name,
			Count:      agg.count,
			Errors:     agg.errors,
			MeanMicros: agg.lat.MeanMicros(),
			MaxMicros:  agg.lat.MaxMicros(),
			P50Micros:  agg.lat.QuantileMicros(0.50),
			P95Micros:  agg.lat.QuantileMicros(0.95),
			P99Micros:  agg.lat.QuantileMicros(0.99),
		})
	}
	return out
}
