package device

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"testing"

	"repro/internal/retry"
)

// TestClassifyTable pins the default error taxonomy, including errors
// reaching the classifier through fmt.Errorf("%w") wrapping chains and
// errors.Join — the forms the hlog flush path and the pending-read path
// actually produce.
func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want retry.Class
	}{
		{"nil", nil, retry.Transient},
		{"unknown", errors.New("spurious"), retry.Transient},
		{"injected-transient", ErrInjected, retry.Transient},
		{"short-read", io.ErrUnexpectedEOF, retry.Transient},
		{"deadline-exceeded", context.DeadlineExceeded, retry.Transient},
		{"wrapped-deadline", fmt.Errorf("flush page 3: %w", context.DeadlineExceeded), retry.Transient},

		{"permanent", ErrPermanent, retry.Permanent},
		{"closed", ErrClosed, retry.Permanent},
		{"out-of-range", ErrOutOfRange, retry.Permanent},
		{"not-exist", fs.ErrNotExist, retry.Permanent},
		{"fs-closed", fs.ErrClosed, retry.Permanent},
		{"canceled", context.Canceled, retry.Permanent},

		{"wrapped-permanent", fmt.Errorf("write at %#x: %w", 0x1000, ErrPermanent), retry.Permanent},
		{"double-wrapped", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", ErrClosed)), retry.Permanent},
		{"joined-permanent", errors.Join(errors.New("context"), ErrPermanent), retry.Permanent},
		{"joined-injected-permanent", errors.Join(ErrInjected, ErrPermanent), retry.Permanent},
		{"wrapped-canceled", fmt.Errorf("pending read: %w", context.Canceled), retry.Permanent},
		{"joined-transients", errors.Join(ErrInjected, io.ErrUnexpectedEOF), retry.Transient},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Fatalf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}
