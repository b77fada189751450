package server

import (
	"net/http"
	"time"
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

// estWait estimates how long a request for a job of the named kind
// admitted now would wait before its job completes: the backlog's
// drain time plus the kind's own expected execution time. Zero when
// nothing has finished yet (first requests must be admitted — there
// is nothing to estimate from) and the pool is idle.
func (s *Server) estWait(kind string) time.Duration {
	us := s.pool.EstWaitMicros() + s.pool.ExecMeanMicros(kind)
	return time.Duration(us * float64(time.Microsecond))
}

// requestDeadline resolves how long the caller is willing to wait:
// the request context's deadline, else the X-Starperf-Deadline
// header, else the configured default.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	if t, ok := r.Context().Deadline(); ok {
		return time.Until(t)
	}
	if h := r.Header.Get(deadlineHeader); h != "" {
		if d, err := time.ParseDuration(h); err == nil && d > 0 {
			return d
		}
	}
	return s.cfg.DefaultDeadline
}

// queueWait is the route-agnostic backlog estimate used where no
// single route applies (queue-full rejections, the concurrency cap):
// the pool backlog's drain time at the observed per-kind execution
// means.
func (s *Server) queueWait() time.Duration {
	return time.Duration(s.pool.EstWaitMicros() * float64(time.Microsecond))
}
