package device

import (
	"context"
	"errors"
	"io/fs"

	"repro/internal/retry"
)

// ErrPermanent marks device failures that retrying cannot fix: the device
// is gone, closed, or structurally unable to serve the request. Fault
// injectors and real devices wrap it (via fmt.Errorf("%w", ...) or
// errors.Join) so errors.Is(err, ErrPermanent) classifies them.
var ErrPermanent = errors.New("device: permanent failure")

// Classify is the error taxonomy of every device I/O the store retries
// (the HybridLog's one retry path):
//
//   - nil is not an error (Transient, never consulted on success)
//   - ErrPermanent (and anything wrapping it), ErrClosed, ErrOutOfRange and
//     filesystem existence errors are Permanent: retrying the same request
//     cannot succeed
//   - context.Canceled is Permanent: the caller abandoned the operation,
//     so retrying it runs I/O nobody is waiting for. A deadline timeout
//     (context.DeadlineExceeded) stays Transient — the next attempt may
//     land inside the budget
//   - everything else — including ErrInjected transient faults and unknown
//     device errors — is Transient; the bounded retry budget keeps
//     misclassification cheap
func Classify(err error) retry.Class {
	switch {
	case err == nil:
		return retry.Transient
	case errors.Is(err, ErrPermanent),
		errors.Is(err, ErrClosed),
		errors.Is(err, ErrOutOfRange),
		errors.Is(err, fs.ErrNotExist),
		errors.Is(err, fs.ErrClosed),
		errors.Is(err, context.Canceled):
		return retry.Permanent
	default:
		return retry.Transient
	}
}
