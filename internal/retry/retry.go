// Package retry is the store-wide failure-handling vocabulary: error
// classes and bounded retry with exponential backoff and jitter.
//
// The FASTER paper assumes reliable storage (§5: eviction can never pass
// an unflushed page), but a production store must survive the device
// misbehaving. Device I/O is retried in one place, the HybridLog
// (internal/hlog): every read and write it hands the device is classified
// (device.Classify) and, if Transient, retried under a Policy a bounded
// number of times with growing, jittered delays; permanent errors (and
// exhausted budgets) are surfaced immediately so the store can degrade
// gracefully instead of busy-looping against a dead device.
//
// The package is stdlib-only and dependency-free, like internal/metrics,
// so every layer can import it.
package retry

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Class partitions I/O errors by how the caller should react.
type Class int

const (
	// Transient errors may succeed on retry (timeouts, injected flaky
	// faults, spurious short reads). Unknown errors default to Transient:
	// the bounded attempt budget keeps misclassification cheap.
	Transient Class = iota
	// Permanent errors will not be fixed by retrying (device gone, closed,
	// out-of-range addressing). The caller should give up immediately and
	// degrade.
	Permanent
)

func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Policy bounds a retry loop. The zero value is usable and means "no
// retries" (one attempt, fail on first error); use DefaultRead/DefaultWrite
// for the store defaults.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values below 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Zero means no cap.
	MaxDelay time.Duration
}

// DefaultRead is the store default for record-read paths: quick, short
// retries — a pending operation is a user-visible latency.
func DefaultRead() Policy {
	return Policy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: 5 * time.Millisecond}
}

// DefaultWrite is the store default for page-flush paths: more patient —
// a failed flush wedges the durability watermark, so it is worth riding
// out longer transient outages before poisoning the log tail.
func DefaultWrite() Policy {
	return Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond}
}

// Attempts returns the normalized attempt budget (at least 1).
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// jitterState is a process-wide xorshift state for jitter; a stateful PRNG
// behind a single atomic is cheaper than seeding per call site and the
// jitter needs no statistical quality beyond decorrelation.
var jitterState atomic.Uint64

func init() { jitterState.Store(uint64(time.Now().UnixNano()) | 1) }

// nextRand returns a pseudo-random uint64 (xorshift64*).
func nextRand() uint64 {
	for {
		old := jitterState.Load()
		x := old
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if jitterState.CompareAndSwap(old, x) {
			return x * 0x2545F4914F6CDD1D
		}
	}
}

// Delay returns the backoff before retry number retryNo (1-based: the
// delay between attempt retryNo and attempt retryNo+1): BaseDelay doubled
// per retry up to MaxDelay, then spread uniformly over ±25 % of itself,
// which decorrelates retry storms from many concurrent I/Os.
func (p Policy) Delay(retryNo int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < retryNo && (p.MaxDelay == 0 || d < float64(p.MaxDelay)); i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	u := float64(nextRand()>>11) / float64(1<<53) // [0,1)
	return time.Duration(d * (0.75 + 0.5*u))
}

// Budget reports whether a failure of class c on attempt (1-based: the
// attempt that just failed) may be retried under the policy.
func (p Policy) Budget(c Class, attempt int) bool {
	return c == Transient && attempt < p.Attempts()
}

// ExhaustedError wraps the final error of a retry loop with the attempt
// count and class, preserving errors.Is/As on the cause.
type ExhaustedError struct {
	Attempts int
	Class    Class
	Err      error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("retry: gave up after %d attempt(s) (%v): %v", e.Attempts, e.Class, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// Exhausted wraps err, of class c, as an ExhaustedError.
func Exhausted(c Class, err error, attempts int) error {
	if err == nil {
		return nil
	}
	return &ExhaustedError{Attempts: attempts, Class: c, Err: err}
}

// IsExhausted reports whether err carries an ExhaustedError.
func IsExhausted(err error) bool {
	var e *ExhaustedError
	return errors.As(err, &e)
}
