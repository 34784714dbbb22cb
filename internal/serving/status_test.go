package serving

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"secemb/internal/core"
)

func TestStatusOf(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		want      Status
		str       string
		retryable bool
	}{
		{"nil", nil, StatusOK, "ok", false},
		{"queue_full", ErrQueueFull, StatusOverloaded, "overloaded", true},
		{"wrapped_queue_full", fmt.Errorf("shard 3: %w", ErrQueueFull), StatusOverloaded, "overloaded", true},
		{"closed", ErrClosed, StatusUnavailable, "unavailable", true},
		{"wrapped_closed", fmt.Errorf("group: %w", ErrClosed), StatusUnavailable, "unavailable", true},
		{"id_out_of_range", core.ErrIDOutOfRange, StatusInvalidArgument, "invalid_argument", false},
		{"wrapped_id_out_of_range", fmt.Errorf("row 9: %w", core.ErrIDOutOfRange), StatusInvalidArgument, "invalid_argument", false},
		{"deadline", context.DeadlineExceeded, StatusDeadlineExceeded, "deadline_exceeded", false},
		{"canceled", context.Canceled, StatusCanceled, "canceled", false},
		{"other", errors.New("backend exploded"), StatusInternal, "internal", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := StatusOf(tc.err)
			if got != tc.want {
				t.Fatalf("StatusOf(%v) = %v, want %v", tc.err, got, tc.want)
			}
			if got.String() != tc.str {
				t.Errorf("String() = %q, want %q", got.String(), tc.str)
			}
			if got.Retryable() != tc.retryable {
				t.Errorf("Retryable() = %v, want %v", got.Retryable(), tc.retryable)
			}
			if r := (Response{Err: tc.err}); r.Status() != tc.want {
				t.Errorf("Response.Status() = %v, want %v", r.Status(), tc.want)
			}
		})
	}
}

// The Status byte values are part of the wire protocol: internal/wire
// serializes them verbatim, so the numeric assignments are frozen.
func TestStatusWireValues(t *testing.T) {
	frozen := map[Status]uint8{
		StatusOK:               0,
		StatusInvalidArgument:  1,
		StatusDeadlineExceeded: 2,
		StatusCanceled:         3,
		StatusOverloaded:       4,
		StatusUnavailable:      5,
		StatusInternal:         6,
	}
	for s, want := range frozen {
		if uint8(s) != want {
			t.Errorf("%v = %d, want %d (wire value is frozen)", s, uint8(s), want)
		}
	}
}
