package wire

import "encoding/json"

// The v1 error contract. Every non-2xx response carries one shape,
//
//	{"error": {"class": "...", "message": "...", "retry_after_ms": 1500}}
//
// with the class drawn from the library's error contract, so an HTTP
// caller classifies failures the way an in-process caller classifies
// the facade's sentinel errors. retry_after_ms is present only on
// retryable responses, mirroring the Retry-After header at
// millisecond resolution.
const (
	// ClassInvalidConfig: the request itself is wrong (malformed JSON,
	// an unknown field, a validation failure, a body past the size
	// limit). 400/413.
	ClassInvalidConfig = "invalid_config"
	// ClassQueueFull: the server cannot take the work now (intake queue
	// full, admission shed, concurrency cap, breaker open, shutdown);
	// retry after retry_after_ms. 429/503.
	ClassQueueFull = "queue_full"
	// ClassSaturated: the model has no steady state at the requested
	// operating point; retrying cannot succeed. 422.
	ClassSaturated = "saturated"
	// ClassUnreachable: the addressed thing does not exist (an unknown
	// job id, or traffic to a node a fault plan stranded). 404/422.
	ClassUnreachable = "unreachable"
	// ClassTimeout: the work ran out of time budget. 504.
	ClassTimeout = "timeout"
	// ClassReadOnly: the journal hit ENOSPC, so async work cannot be
	// durably acknowledged until disk space returns; sync routes still
	// serve. 503.
	ClassReadOnly = "read_only"
	// ClassInternal: everything else. 500.
	ClassInternal = "internal"
)

// Error is the inner object of the v1 error envelope, and a rejected
// batch item's entry.
type Error struct {
	Class        string `json:"class"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrorBody is the v1 error envelope: one nested object, so the
// top-level "error" key can never collide with a success field and
// additions extend the inner object without breaking decoders.
type ErrorBody struct {
	Error Error `json:"error"`
}

// Job is the async envelope: a submission's acknowledgement and a
// GET /v1/jobs/{id} poll. Result holds a done job's result bytes.
type Job struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Finished reports whether j carries a done job's result bytes.
func (j Job) Finished() bool { return j.Status == "done" && j.Result != nil }

// BatchItem is one submission of POST /v1/jobs:batch: the job kind
// and the config its standalone route would take.
type BatchItem struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config"`
}

// MaxBatchItems bounds the items of one batch request; the client
// splits a bigger workload into chunks itself.
const MaxBatchItems = 256

// BatchRequest is the POST /v1/jobs:batch body.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one item's outcome: id and status on acceptance
// (or a cache hit), otherwise the error object a standalone request
// would have drawn.
type BatchItemResult struct {
	ID     string `json:"id,omitempty"`
	Status string `json:"status,omitempty"`
	Error  *Error `json:"error,omitempty"`
}

// BatchResponse is the 200 body: Items[i] answers request item i.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// Health is the GET /healthz body. JournalReadOnly reports the
// disk-full degradation (alive, sync routes served, async refused);
// Cluster is present on a clustered node, and the client builds its
// ring from it.
type Health struct {
	OK              bool  `json:"ok"`
	JournalReadOnly bool  `json:"journal_readonly,omitempty"`
	Cluster         *Ring `json:"cluster,omitempty"`
}

// Ring is the membership triple every member (and the client) must
// agree on to build identical rings.
type Ring struct {
	Self         string   `json:"self"`
	Members      []string `json:"members"`
	VirtualNodes int      `json:"virtual_nodes"`
}
