package server

// Replies in the v1 wire contract (internal/wire): every non-2xx
// response is a wire.ErrorBody whose class maps onto the library's
// error contract; see the class constants there.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"starperf/internal/wire"
)

// noRetry marks an error response that must not advertise a retry
// hint — retrying an invalid_config or saturated request cannot
// succeed.
const noRetry time.Duration = -1

// failure builds one error. A non-negative retryAfter becomes
// retry_after_ms, minimum 1 ms so a retryable class always carries a
// positive hint; reply mirrors it into the Retry-After header.
func failure(class, message string, retryAfter time.Duration) wire.Error {
	we := wire.Error{Class: class, Message: message}
	if retryAfter >= 0 {
		we.RetryAfterMS = max(retryAfter.Milliseconds(), 1)
	}
	return we
}

// result is a finished computation's stored bytes on their way to
// the caller, with the job id and cache state they answer for.
type result struct {
	id, cache string
	body      []byte
}

// reply writes every response the server itself produces (relayed
// peer responses excepted). A result goes out verbatim — the response
// body is exactly the cached, and therefore exactly the recomputed,
// encoding — with its id, cache state and content sum in headers, so
// hit/miss can never perturb the body and any hop can verify the
// bytes. A job envelope carrying a result advertises the same sum.
// An error goes out in the v1 envelope, and a retry hint sets
// Retry-After in whole seconds, at least 1. Everything is JSON with a
// trailing newline except a result.
func reply(w http.ResponseWriter, status int, body any) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	switch b := body.(type) {
	case result:
		h.Set(wire.JobHeader, b.id)
		h.Set(wire.CacheHeader, b.cache)
		h.Set(wire.ResultSumHeader, wire.ResultSum(b.body))
		w.WriteHeader(status)
		_, _ = w.Write(b.body)
		return
	case wire.Job:
		if b.Result != nil {
			h.Set(wire.ResultSumHeader, wire.ResultSum(b.Result))
		}
	case wire.Error:
		if b.RetryAfterMS > 0 {
			h.Set("Retry-After", strconv.FormatInt((b.RetryAfterMS+999)/1000, 10))
		}
		body = wire.ErrorBody{Error: b}
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body) // the connection is the only failure mode left
}
