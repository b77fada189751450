package server

// The v1 error wire contract (PR 10). Every non-2xx response carries
// one JSON shape:
//
//	{"error": {"class": "...", "message": "...", "retry_after_ms": 1500}}
//
// with class drawn from the library's error contract, so an HTTP
// caller classifies failures exactly the way an in-process caller
// classifies the facade's sentinel errors:
//
//	invalid_config  the request itself is wrong (cfgerr.ErrInvalid):
//	                malformed JSON, unknown fields, a validation
//	                failure, or a body past the size limit. 400/413.
//	queue_full      the server cannot take the work right now and the
//	                caller should retry after retry_after_ms: intake
//	                queue full, admission shed, concurrency cap,
//	                breaker open, shutdown in progress. 429/503.
//	saturated       the model has no steady state at the requested
//	                operating point (model.ErrSaturated) — retrying
//	                the same request cannot succeed. 422.
//	unreachable     the addressed thing does not exist: an unknown
//	                job id, or traffic addressed to a node a fault
//	                plan stranded (routing.UnreachableError). 404/422.
//	timeout         the work ran out of time budget. 504.
//	read_only       the node's journal hit ENOSPC and async work
//	                cannot be durably acknowledged until disk space
//	                returns; sync routes still serve. Retry after
//	                retry_after_ms (space recovery is probed on every
//	                rejected submit). 503. (PR 12)
//	internal        everything else. 500.
//
// retry_after_ms is present only on retryable responses (mirroring
// the Retry-After header, at millisecond resolution).

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

const (
	classInvalidConfig = "invalid_config"
	classQueueFull     = "queue_full"
	classSaturated     = "saturated"
	classUnreachable   = "unreachable"
	classTimeout       = "timeout"
	classReadOnly      = "read_only"
	classInternal      = "internal"
)

// wireError is the inner object of the v1 error envelope.
type wireError struct {
	Class        string `json:"class"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errorBody is the v1 error envelope: one nested object, so the
// top-level "error" key can never collide with a success field and
// future additions (a trace id, a doc link) extend the inner object
// without breaking decoders.
type errorBody struct {
	Error wireError `json:"error"`
}

// noRetry marks an error response that must not advertise a retry
// hint — retrying an invalid_config or saturated request cannot
// succeed.
const noRetry time.Duration = -1

// failure builds one error. A non-negative retryAfter becomes
// retry_after_ms, minimum 1 ms so a retryable class always carries a
// positive hint; reply mirrors it into the Retry-After header.
func failure(class, message string, retryAfter time.Duration) wireError {
	we := wireError{Class: class, Message: message}
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
		h.Set(jobHeader, b.id)
		h.Set(cacheHeader, b.cache)
		h.Set(resultSumHeader, resultSum(b.body))
		w.WriteHeader(status)
		_, _ = w.Write(b.body)
		return
	case jobBody:
		if b.Result != nil {
			h.Set(resultSumHeader, resultSum(b.Result))
		}
	case wireError:
		if b.RetryAfterMS > 0 {
			h.Set("Retry-After", strconv.FormatInt((b.RetryAfterMS+999)/1000, 10))
		}
		body = errorBody{Error: b}
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body) // the connection is the only failure mode left
}
