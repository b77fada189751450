package server

import (
	"sort"
	"sync"
	"time"

	"starperf/internal/obs"
)

// Per-route circuit breaker. Each route carries a sliding window of
// recent outcomes; when enough of them are server-side failures (5xx,
// which includes the 504 a timed-out job maps to) the route opens and
// requests are rejected locally with 503 + Retry-After instead of
// piling onto a failing dependency. After a cooldown the breaker
// half-opens: one probe request is admitted, and its outcome alone
// decides between closing (healthy again) and re-opening.
//
// Client-caused statuses (4xx, including the 429s shed by admission
// control) are successes here: a breaker that tripped on its own load
// shedding would never close again.

// Breaker states, reported via /metricsz.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// BreakerConfig tunes the per-route circuit breaker. The zero value
// gets usable defaults.
type BreakerConfig struct {
	// Window is the number of recent outcomes considered (default 20).
	Window int
	// MinSamples is the fewest outcomes in the window before the
	// breaker may trip (default 10) — a single early failure is not a
	// trend.
	MinSamples int
	// FailureRatio trips the breaker when failures/samples reaches it
	// (default 0.5).
	FailureRatio float64
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.FailureRatio <= 0 {
		c.FailureRatio = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// routeBreaker is one route's state machine.
type routeBreaker struct {
	state    string
	ring     []bool // true = failure; ring[idx] is the next slot
	idx      int
	samples  int
	failures int
	openedAt time.Time
	probing  bool // half-open: the single probe is in flight
	trips    uint64
	rejected uint64
}

// breakerSet holds every route's breaker behind one lock. The clock
// is injectable so tests drive state transitions without sleeping.
type breakerSet struct {
	cfg BreakerConfig
	now func() time.Time

	mu     sync.Mutex
	routes map[string]*routeBreaker
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{
		cfg:    cfg.withDefaults(),
		now:    time.Now,
		routes: make(map[string]*routeBreaker),
	}
}

func (b *breakerSet) route(name string) *routeBreaker {
	rb := b.routes[name]
	if rb == nil {
		rb = &routeBreaker{state: breakerClosed, ring: make([]bool, b.cfg.Window)}
		b.routes[name] = rb
	}
	return rb
}

// allow decides whether a request on route may proceed. A rejection
// carries the cooldown time remaining, for Retry-After.
func (b *breakerSet) allow(name string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rb := b.route(name)
	switch rb.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if wait := b.cfg.Cooldown - b.now().Sub(rb.openedAt); wait > 0 {
			rb.rejected++
			return false, wait
		}
		// Cooldown over: admit exactly one probe.
		rb.state = breakerHalfOpen
		rb.probing = true
		return true, 0
	default: // half-open
		if rb.probing {
			rb.rejected++
			return false, b.cfg.Cooldown
		}
		rb.probing = true
		return true, 0
	}
}

// observe records one finished request's outcome on route. failed
// means a server-side failure (status ≥ 500).
func (b *breakerSet) observe(name string, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rb := b.route(name)
	if rb.state == breakerHalfOpen {
		rb.probing = false
		if failed {
			b.trip(rb) // the probe failed: back to open, fresh cooldown
		} else {
			rb.state = breakerClosed // healthy again; window already reset by trip
		}
		return
	}
	if rb.state == breakerOpen {
		return // a straggler finishing after the trip teaches nothing new
	}
	if rb.samples == len(rb.ring) {
		if rb.ring[rb.idx] {
			rb.failures--
		}
	} else {
		rb.samples++
	}
	rb.ring[rb.idx] = failed
	if failed {
		rb.failures++
	}
	rb.idx = (rb.idx + 1) % len(rb.ring)
	if rb.samples >= b.cfg.MinSamples &&
		float64(rb.failures) >= b.cfg.FailureRatio*float64(rb.samples) {
		b.trip(rb)
	}
}

// trip opens rb and resets its window, so the close after a healthy
// probe starts from a clean slate.
func (b *breakerSet) trip(rb *routeBreaker) {
	rb.state = breakerOpen
	rb.openedAt = b.now()
	rb.trips++
	rb.probing = false
	rb.samples, rb.failures, rb.idx = 0, 0, 0
	for i := range rb.ring {
		rb.ring[i] = false
	}
}

// report snapshots every route breaker, sorted by route name.
func (b *breakerSet) report() []obs.BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.routes))
	for name := range b.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.BreakerStats, 0, len(names))
	for _, name := range names {
		rb := b.routes[name]
		out = append(out, obs.BreakerStats{
			Route: name, State: rb.state,
			Samples: rb.samples, Failures: rb.failures,
			Trips: rb.trips, Rejected: rb.rejected,
		})
	}
	return out
}
