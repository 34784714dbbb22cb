package serving

import (
	"context"
	"errors"

	"secemb/internal/core"
)

// Status is the v1 error taxonomy: every error a serving call can return
// maps onto exactly one stable code, so wire front ends translate outcomes
// without string-matching error text. The numeric values are part of the
// wire protocol (internal/wire encodes a Status as one byte) and must not
// be reordered.
type Status uint8

const (
	// StatusOK: the request was served.
	StatusOK Status = 0
	// StatusInvalidArgument: the request itself is malformed — an id out
	// of table range (core.ErrIDOutOfRange) or a payload the backend
	// rejects. Retrying the same request cannot succeed.
	StatusInvalidArgument Status = 1
	// StatusDeadlineExceeded: the request's context deadline expired
	// before a response was delivered.
	StatusDeadlineExceeded Status = 2
	// StatusCanceled: the request's context was canceled by the caller.
	StatusCanceled Status = 3
	// StatusOverloaded: load shedding dropped the request because the
	// target shard's queue stayed saturated (ErrQueueFull). The request
	// is safe to retry after backing off.
	StatusOverloaded Status = 4
	// StatusUnavailable: the group is closed or draining (ErrClosed).
	// Retry against another replica group.
	StatusUnavailable Status = 5
	// StatusInternal: any other failure (backend fault, result-count
	// mismatch).
	StatusInternal Status = 6
)

// StatusOf classifies err into the v1 taxonomy. nil maps to StatusOK.
// Classification uses errors.Is throughout, so wrapped errors (e.g. a
// *core.IDRangeError) land on their sentinel's code.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrQueueFull):
		return StatusOverloaded
	case errors.Is(err, ErrClosed):
		return StatusUnavailable
	case errors.Is(err, core.ErrIDOutOfRange):
		return StatusInvalidArgument
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusInternal
	}
}

// String names the code as in reports and logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidArgument:
		return "invalid_argument"
	case StatusDeadlineExceeded:
		return "deadline_exceeded"
	case StatusCanceled:
		return "canceled"
	case StatusOverloaded:
		return "overloaded"
	case StatusUnavailable:
		return "unavailable"
	case StatusInternal:
		return "internal"
	}
	return "unknown"
}

// Retryable reports whether the same request can meaningfully be retried
// (against the same group after backoff, or another replica group).
func (s Status) Retryable() bool {
	return s == StatusOverloaded || s == StatusUnavailable
}

// Status classifies the response's error into the v1 taxonomy.
func (r Response) Status() Status { return StatusOf(r.Err) }
