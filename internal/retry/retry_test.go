package retry

import (
	"errors"
	"testing"
	"time"
)

var errDead = errors.New("dead")

// inEnvelope reports whether d lies within ±25 % of base, the fixed jitter
// spread.
func inEnvelope(d time.Duration, base float64) bool {
	return d >= time.Duration(0.75*base) && d <= time.Duration(1.25*base)
}

// TestDelayGrowsAndCaps checks that the base delay doubles per retry
// until MaxDelay caps it.
func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	for i, ms := range []time.Duration{1, 2, 4, 8, 8, 8} {
		if d := p.Delay(i + 1); !inEnvelope(d, float64(ms*time.Millisecond)) {
			t.Fatalf("Delay(%d)=%v outside ±25%% of %v", i+1, d, ms*time.Millisecond)
		}
	}
}

// TestDelayClampsDegenerateInputs pins the normalization rule: retry
// numbers below 1 are the first rung.
func TestDelayClampsDegenerateInputs(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond}
	for _, retryNo := range []int{0, -5} {
		if d := p.Delay(retryNo); !inEnvelope(d, float64(time.Millisecond)) {
			t.Fatalf("Delay(%d)=%v, want the first rung", retryNo, d)
		}
	}
}

// TestDelayJitterBoundsAcrossLadder checks the ±25 % envelope at every
// rung of the backoff ladder, not just the first.
func TestDelayJitterBoundsAcrossLadder(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond, MaxDelay: 64 * time.Millisecond}
	for retryNo := 1; retryNo <= 8; retryNo++ {
		base := min(float64(time.Millisecond)*float64(int(1)<<(retryNo-1)), float64(64*time.Millisecond))
		for i := 0; i < 100; i++ {
			if d := p.Delay(retryNo); !inEnvelope(d, base) {
				t.Fatalf("Delay(%d)=%v outside ±25%% of %v", retryNo, d, time.Duration(base))
			}
		}
	}
}

// TestDelayUncappedGrowth confirms MaxDelay==0 really means unbounded
// exponential growth.
func TestDelayUncappedGrowth(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond}
	if d := p.Delay(11); !inEnvelope(d, float64(1024*time.Millisecond)) {
		t.Fatalf("Delay(11)=%v, want 1024ms ±25%%", d)
	}
}

// TestDelayJitterStaysInBounds checks that the ±25 % spread really varies
// the delay, so concurrent retries do not fire in lockstep.
func TestDelayJitterStaysInBounds(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	varied := false
	first := p.Delay(1)
	for i := 0; i < 200; i++ {
		d := p.Delay(1)
		if !inEnvelope(d, float64(time.Millisecond)) {
			t.Fatalf("jittered delay %v outside [0.75ms, 1.25ms]", d)
		}
		if d != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced identical delays 200 times")
	}
}

func TestBudgetStopsOnPermanent(t *testing.T) {
	p := Policy{MaxAttempts: 5}
	if p.Budget(Permanent, 1) {
		t.Fatal("permanent error should not be retried")
	}
	if !p.Budget(Transient, 1) {
		t.Fatal("transient error within budget should be retried")
	}
	if p.Budget(Transient, 5) {
		t.Fatal("attempt 5 of 5 should exhaust the budget")
	}
}

func TestZeroPolicyMeansOneAttempt(t *testing.T) {
	var p Policy
	if p.Attempts() != 1 {
		t.Fatalf("zero policy attempts = %d, want 1", p.Attempts())
	}
	if p.Budget(Transient, 1) {
		t.Fatal("zero policy retried its first failure")
	}
}

// TestDefaultsAreSane pins the store default policies: both retry, both
// back off, both bound the worst-case delay.
func TestDefaultsAreSane(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
	}{{"read", DefaultRead()}, {"write", DefaultWrite()}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.p.Attempts() < 2 {
				t.Fatalf("default policy never retries: %+v", tc.p)
			}
			if tc.p.MaxDelay == 0 {
				t.Fatalf("default policy has unbounded backoff: %+v", tc.p)
			}
			// Worst case: cap plus full jitter.
			worst := time.Duration(float64(tc.p.MaxDelay) * 1.25)
			for i := 1; i <= tc.p.Attempts(); i++ {
				if d := tc.p.Delay(i); d > worst {
					t.Fatalf("Delay(%d)=%v beyond worst case %v", i, d, worst)
				}
			}
		})
	}
}

// TestExhaustedWrapping pins the error-chain contract: the wrapper
// preserves errors.Is/errors.As to the cause, Exhausted(nil) is nil, and
// IsExhausted sees through further wrapping.
func TestExhaustedWrapping(t *testing.T) {
	if Exhausted(Permanent, nil, 3) != nil {
		t.Fatal("Exhausted(nil) != nil")
	}
	err := Exhausted(Permanent, errDead, 2)
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 2 || ex.Class != Permanent {
		t.Fatalf("Exhausted = %#v", err)
	}
	if !errors.Is(err, errDead) {
		t.Fatal("cause lost through ExhaustedError")
	}
	wrapped := errors.Join(errors.New("outer context"), err)
	if !IsExhausted(wrapped) {
		t.Fatal("IsExhausted lost through errors.Join")
	}
	if IsExhausted(errDead) {
		t.Fatal("IsExhausted on a bare cause")
	}
}
