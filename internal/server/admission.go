package server

import (
	"fmt"
	"net/http"
	"time"

	"starperf/internal/wire"
)

// Deadline-aware admission control. Accepting a request the server
// cannot possibly answer in time wastes a worker on a response nobody
// is still waiting for; shedding it immediately with 429 +
// Retry-After lets a well-behaved client (the public client package)
// back off and try when the queue has drained. The estimate is the
// classic M/M/c-flavoured backlog bound: each queued or running job
// priced at its kind's observed mean *execution* time, spread over
// the pool's workers. Job execution time — recorded by the pool when
// jobs finish — is the right price, not the per-route HTTP latency:
// an async submit returns 202 in microseconds no matter how long its
// job occupies a worker, and a synchronous route's HTTP latency
// already contains queue wait, which would double-count the backlog.

// admission prices a run of submissions against one caller's
// deadline. Job k of the run is estimated to complete after the
// backlog's drain time, plus the mean execution times of the jobs
// admitted before it in the run spread over the workers, plus its own
// full mean execution time. A standalone submit is a run of one, so
// it sheds at exactly the deadline a one-item batch does. The
// estimate is zero while nothing has finished and the pool is idle:
// first requests must be admitted — there is nothing to estimate
// from.
type admission struct {
	s                 *Server
	backlog, deadline time.Duration // backlog grows by each job admitted
}

// admission opens a run priced against r's deadline.
func (s *Server) admission(r *http.Request) admission {
	return admission{s: s, backlog: s.queueWait(), deadline: s.requestDeadline(r)}
}

// admit prices the run's next job, of the named kind, and returns nil
// when its estimated wait fits the deadline: the job then joins the
// backlog the run's later jobs are priced against. A job that does
// not fit is counted as shed and answered with the returned
// queue_full envelope, its Retry-After the estimated wait.
func (a *admission) admit(kind string) *wire.Error {
	mean := a.s.pool.ExecMeanMicros(kind)
	if est := a.backlog + micros(mean); est > a.deadline {
		a.s.shed.Add(1)
		we := failure(wire.ClassQueueFull,
			fmt.Sprintf("estimated queue wait %s exceeds request deadline %s",
				est.Round(time.Millisecond), a.deadline.Round(time.Millisecond)),
			est)
		return &we
	}
	a.backlog += micros(mean / float64(a.s.cfg.Workers))
	return nil
}

// micros converts a µs estimate to a Duration.
func micros(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond))
}

// defaultDeadline is the patience assumed for a request that carries
// neither a context deadline nor an X-Starperf-Deadline header.
const defaultDeadline = 30 * time.Second

// requestDeadline resolves how long the caller is willing to wait:
// the request context's deadline, else the X-Starperf-Deadline
// header, else defaultDeadline.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	if t, ok := r.Context().Deadline(); ok {
		return time.Until(t)
	}
	if h := r.Header.Get(wire.DeadlineHeader); h != "" {
		if d, err := time.ParseDuration(h); err == nil && d > 0 {
			return d
		}
	}
	return defaultDeadline
}

// queueWait is the route-agnostic backlog estimate used where no
// single route applies (queue-full rejections, the concurrency cap):
// the pool backlog's drain time at the observed per-kind execution
// means.
func (s *Server) queueWait() time.Duration {
	return micros(s.pool.EstWaitMicros())
}
