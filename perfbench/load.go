package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is the generator's own record of one open-loop phase.
type openLoop struct {
	release   []time.Duration // actual release, on the recorder clock
	lag       []time.Duration // release − due: timer lateness, not latency
	pickup    []time.Duration // a sender took the operation up
	overshoot []time.Duration // each dispatcher sleep's wake-up past its target
	backlog   []int64         // released − finished, sampled while releasing
}

// backlogSample is how often the backlog is sampled.
const backlogSample = 10 * time.Millisecond

// runOpen releases one operation per due time (offsets from now) to
// senders goroutines, which call do(ctx, i, release). An operation is
// released at the later of its due time and the dispatcher's actual
// wake-up; latency is measured from there, so time spent waiting for a
// free sender still counts. finished is the caller's count of finished
// operations, read for the backlog check. runOpen returns once every
// operation has been handed to do and do has returned.
func runOpen(ctx context.Context, now func() time.Duration, dues []time.Duration, senders int,
	do func(ctx context.Context, i int, release time.Duration), finished *atomic.Int64) *openLoop {
	o := &openLoop{
		release: make([]time.Duration, len(dues)),
		lag:     make([]time.Duration, len(dues)),
		pickup:  make([]time.Duration, len(dues)),
	}
	queue := make(chan int, len(dues)) // sized to the number of sends: the dispatcher never blocks
	var released atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o.pickup[i] = now()
				do(ctx, i, o.release[i])
			}
		}()
	}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(backlogSample)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				o.backlog = append(o.backlog, released.Load()-finished.Load())
			}
		}
	}()

	start := now()
	for i, d := range dues {
		due := start + d
		t := now()
		if wait := due - t; wait > 0 && ctx.Err() == nil {
			time.Sleep(wait)
			t = now()
			o.overshoot = append(o.overshoot, t-due)
		}
		if t < due {
			t = due
		}
		o.release[i], o.lag[i] = t, t-due
		released.Add(1)
		queue <- i
	}
	close(queue)
	close(stop)
	<-sampled
	wg.Wait()
	return o
}

// thirds returns the p90 timer lag and the mean backlog over the first
// and the last third of the phase, the inputs of the validity checks.
func (o *openLoop) thirds() (lagFirst, lagLast, backFirst, backLast float64) {
	n := len(o.lag)
	first := make([]float64, 0, n/3)
	last := make([]float64, 0, n/3)
	for i := 0; i < n/3; i++ {
		first = append(first, ms(o.lag[i]))
		last = append(last, ms(o.lag[n-1-i]))
	}
	m := len(o.backlog)
	for i := 0; i < m/3; i++ {
		backFirst += float64(o.backlog[i])
		backLast += float64(o.backlog[m-1-i])
	}
	if m >= 3 {
		backFirst, backLast = backFirst/float64(m/3), backLast/float64(m/3)
	}
	return quantile(first, 0.9), quantile(last, 0.9), backFirst, backLast
}

// validate reports the generator-validity failures of a run's
// open-loop phases: a generator that falls progressively behind its
// schedule, or a backlog that grows, meaning the offered rate is above
// capacity and the point is not a steady one. Every phase starts from
// an empty backlog, so both show as growth from a phase's first third
// to its last; the checks read the median over phases, which a
// passing disturbance of the host does not move. slack is the backlog
// growth tolerated for bursty arrivals.
func validate(loops []*openLoop, slack float64) []string {
	var lf, ll, bf, bl []float64
	for _, o := range loops {
		if len(o.lag) < 30 || len(o.backlog) < 30 {
			continue
		}
		a, b, c, d := o.thirds()
		lf, ll, bf, bl = append(lf, a), append(ll, b), append(bf, c), append(bl, d)
	}
	if len(lf) == 0 {
		return nil
	}
	var bad []string
	if f, l := median(lf), median(ll); l > 2*f+2 {
		bad = append(bad, fmt.Sprintf("generator fell behind: p90 timer lag grew from %.3f ms to %.3f ms over a phase (median of %d)", f, l, len(lf)))
	}
	if f, l := median(bf), median(bl); l > 2*f+slack {
		bad = append(bad, fmt.Sprintf("backlog grew from %.1f to %.1f operations over a phase (median of %d): offered rate above capacity", f, l, len(bf)))
	}
	return bad
}

// genMetrics returns the generator's validity figures.
func (o *openLoop) genMetrics() map[string]float64 {
	lag := make([]float64, len(o.lag))
	wait := make([]float64, len(o.lag))
	for i := range o.lag {
		lag[i] = ms(o.lag[i])
		wait[i] = ms(o.pickup[i] - o.release[i])
	}
	over := make([]float64, len(o.overshoot))
	for i, d := range o.overshoot {
		over[i] = ms(d)
	}
	return map[string]float64{
		"gen.lag_p50_ms":             quantile(lag, 0.5),
		"gen.lag_p99_ms":             quantile(lag, 0.99),
		"gen.conn_wait_p99_ms":       quantile(wait, 0.99),
		"gen.timer_overshoot_p50_ms": quantile(over, 0.5),
	}
}

// runClosed runs callers goroutines, each calling do until dur has
// passed since the start; do returns the completion times of the
// operations it finished. runClosed returns the operations completed
// per second within dur, and their number.
func runClosed(ctx context.Context, now func() time.Duration, callers int, dur time.Duration,
	do func(ctx context.Context) []time.Duration) (float64, int) {
	start := now()
	per := make([][]time.Duration, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now()-start < dur && ctx.Err() == nil {
				per[c] = append(per[c], do(ctx)...)
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, done := range per {
		for _, t := range done {
			if t-start < dur {
				n++
			}
		}
	}
	return float64(n) / dur.Seconds(), n
}
