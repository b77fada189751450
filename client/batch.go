package client

// Batched ingestion: POST /v1/jobs:batch submits many jobs in one
// round trip (one server-side admission decision, one journal fsync
// for the accepted set), and WaitBatch polls the whole set on a
// shared schedule. Content addressing keeps blind retries safe here
// exactly as it does for single submissions — a resubmitted batch
// dedupes item by item onto the jobs the first attempt created.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"starperf/internal/wire"
)

// BatchItem is one submission in a batch: the job kind ("predict",
// "bounds", "simulate" or "sweep") and the config its standalone
// route would take (a PredictRequest, BoundsRequest, SimulateRequest
// or SweepRequest — or any value marshalling to the same JSON).
type BatchItem struct {
	Kind   string
	Config any
}

// BatchStatus is one item's submission outcome. Exactly one of
// (ID, Err) is meaningful: an accepted (or cache-satisfied) item has
// its content-hash ID and the server's status for it; a rejected item
// carries the *APIError the same request would have drawn standalone
// — a shed item's Err is Temporary() with the server's Retry-After
// hint, so the caller can resubmit just the rejected remainder.
type BatchStatus struct {
	ID     string
	Status string
	Err    error
}

// SubmitBatch submits items through POST /v1/jobs:batch, splitting
// past the server's 256-item limit into sequential chunks. The
// returned slice matches items index for index. A non-nil error means
// a whole chunk's HTTP exchange failed terminally (its items carry
// the error too); per-item rejections — invalid configs, shed items —
// are not errors of the batch, they are Err entries on their items.
func (c *Client) SubmitBatch(ctx context.Context, items []BatchItem) ([]BatchStatus, error) {
	out := make([]BatchStatus, len(items))
	var firstErr error
	for start := 0; start < len(items); start += wire.MaxBatchItems {
		end := start + wire.MaxBatchItems
		if end > len(items) {
			end = len(items)
		}
		if err := c.submitChunk(ctx, items[start:end], out[start:end]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// submitChunk runs one ≤256-item POST and fills out[i] per item.
func (c *Client) submitChunk(ctx context.Context, items []BatchItem, out []BatchStatus) error {
	req := wire.BatchRequest{Items: make([]wire.BatchItem, len(items))}
	for i, it := range items {
		cfg, err := json.Marshal(it.Config)
		if err != nil {
			return fmt.Errorf("%w: batch item %d config: %v", ErrConfig, i, err)
		}
		req.Items[i] = wire.BatchItem{Kind: it.Kind, Config: cfg}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	raw, _, err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", body)
	if err != nil {
		for i := range out {
			out[i] = BatchStatus{Err: err}
		}
		return err
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("%w: batch response: %v", ErrProtocol, err)
	}
	if len(resp.Items) != len(items) {
		return fmt.Errorf("%w: batch answered %d items for %d", ErrProtocol, len(resp.Items), len(items))
	}
	for i, r := range resp.Items {
		if r.Error != nil {
			// The per-item entry is the envelope a standalone non-2xx
			// would carry; map it onto the same *APIError surface so
			// errors.Is/Temporary work identically either way.
			out[i] = BatchStatus{Err: &APIError{
				Status:     itemStatus(r.Error.Class),
				Class:      r.Error.Class,
				Message:    r.Error.Message,
				retryAfter: time.Duration(r.Error.RetryAfterMS) * time.Millisecond,
			}}
			continue
		}
		if r.ID == "" {
			out[i] = BatchStatus{Err: fmt.Errorf("%w: batch item %d has neither id nor error", ErrProtocol, i)}
			continue
		}
		out[i] = BatchStatus{ID: r.ID, Status: r.Status}
	}
	return nil
}

// itemStatus reconstructs the HTTP status a per-item error class
// would have carried standalone, so APIError.Temporary classifies
// batch rejections exactly like whole-request ones.
func itemStatus(class string) int {
	switch class {
	case wire.ClassInvalidConfig:
		return http.StatusBadRequest
	case wire.ClassQueueFull:
		return http.StatusTooManyRequests
	case wire.ClassSaturated, wire.ClassUnreachable:
		return http.StatusUnprocessableEntity
	case wire.ClassTimeout:
		return http.StatusGatewayTimeout
	case wire.ClassReadOnly:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// JobResult is one job's terminal outcome from WaitBatch: the raw
// result bytes on success, ErrJobFailed (or the poll's own error) in
// Err otherwise.
type JobResult struct {
	ID     string
	Result json.RawMessage
	Err    error
}

// WaitBatch polls every id until all are terminal or ctx expires,
// pacing the whole set on one PollInterval schedule — one pass polls
// each still-pending job once (ring-aware, owner first), so a batch
// of n jobs costs one round of polls per interval, not n independent
// pollers. Results match ids index for index; ids the context
// outlived carry ctx's error.
func (c *Client) WaitBatch(ctx context.Context, ids []string) []JobResult {
	out := make([]JobResult, len(ids))
	pending := make([]int, 0, len(ids))
	for i, id := range ids {
		out[i].ID = id
		if id == "" {
			out[i].Err = fmt.Errorf("%w: empty job id", ErrConfig)
			continue
		}
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		next := pending[:0]
		for _, i := range pending {
			id := ids[i]
			raw, _, err := c.doTargets(ctx, http.MethodGet, c.targets(id), "/v1/jobs/"+id, nil)
			if err != nil {
				out[i].Err = err
				continue
			}
			var job wire.Job
			if err := json.Unmarshal(raw, &job); err != nil {
				out[i].Err = fmt.Errorf("client: job poll: %w", err)
				continue
			}
			switch {
			case job.Finished():
				out[i].Result = job.Result
			case job.Status == "failed":
				out[i].Err = fmt.Errorf("%w: job %s: %s", ErrJobFailed, id, job.Error)
			default:
				next = append(next, i)
			}
		}
		pending = next
		if len(pending) == 0 {
			break
		}
		if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
			for _, i := range pending {
				out[i].Err = err
			}
			break
		}
	}
	return out
}
