package hlog

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/retry"
	"repro/internal/testutil"
)

// faultyLog builds a hybrid log over a Faulty(Mem) device with a small,
// fast retry policy.
func faultyLog(t *testing.T, policy retry.Policy) (*Log, *epoch.Manager, *device.Faulty, *writeFailureRecorder) {
	t.Helper()
	em := epoch.New(64)
	mem := device.NewMem(device.MemConfig{})
	faulty := device.NewFaulty(mem)
	rec := &writeFailureRecorder{}
	l, err := New(Config{
		PageBits:        12,
		BufferPages:     4,
		MutableFraction: 0.5,
		Mode:            ModeHybrid,
		Device:          faulty,
		Epoch:           em,
		WriteRetry:      policy,
		OnRetry:         func(error) { rec.retries.Add(1) },
		OnWriteFailure:  func(err error) { rec.record(err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); mem.Close() })
	return l, em, faulty, rec
}

type writeFailureRecorder struct {
	retries atomic.Int64
	calls   atomic.Int64
	err     atomic.Pointer[error]
}

func (r *writeFailureRecorder) record(err error) {
	r.calls.Add(1)
	r.err.Store(&err)
}

// fillPages allocates and fills n pages' worth of records, driving
// read-only shifts and flushes.
func fillPages(t *testing.T, l *Log, em *epoch.Manager, n int) {
	t.Helper()
	g := em.Acquire()
	defer g.Release()
	perPage := int(l.PageSize()) / 64
	for i := 0; i < n*perPage; i++ {
		if _, err := l.Allocate(64, g); err != nil {
			return // poisoned mid-fill is fine for these tests
		}
		g.Refresh()
		em.Drain()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	testutil.WaitUntil(t, 5*time.Second, cond, "%s", what)
}

func TestPermanentWriteFailurePoisonsWithoutRetrying(t *testing.T) {
	l, em, faulty, rec := faultyLog(t, retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond})
	faulty.BreakPermanently()
	fillPages(t, l, em, 3)

	waitFor(t, "poison", l.Poisoned)
	if err := l.WriteFailure(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, device.ErrInjected) {
		t.Fatalf("WriteFailure = %v, want ErrPoisoned wrapping the device cause", err)
	}
	// Permanent classification must short-circuit the backoff ladder: the
	// budget allows 8 attempts but none of them should have been retries.
	if n := rec.retries.Load(); n != 0 {
		t.Fatalf("permanent failure was retried %d times", n)
	}
	if rec.calls.Load() == 0 {
		t.Fatal("OnWriteFailure never fired")
	}

	// Allocation fails fast instead of hanging on an unevictable frame.
	g := em.Acquire()
	defer g.Release()
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := l.Allocate(64, g); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("Allocate after poison = %v, want ErrPoisoned", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Allocate hung on a poisoned log")
	}

	// WaitUntilFlushed surfaces the poison instead of spinning forever.
	if err := l.WaitUntilFlushed(l.TailAddress(), nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("WaitUntilFlushed = %v, want ErrPoisoned", err)
	}
}

func TestTransientFailuresExhaustBudgetThenPoison(t *testing.T) {
	const budget = 3
	l, em, faulty, rec := faultyLog(t, retry.Policy{MaxAttempts: budget, BaseDelay: 100 * time.Microsecond})
	faulty.FailEveryNthWrite(1) // every write fails, transiently
	fillPages(t, l, em, 3)

	waitFor(t, "poison after budget", l.Poisoned)
	var ex *retry.ExhaustedError
	if err := l.WriteFailure(); !errors.As(err, &ex) {
		t.Fatalf("WriteFailure = %v, want ExhaustedError", err)
	} else if ex.Attempts != budget {
		t.Fatalf("gave up after %d attempts, want %d", ex.Attempts, budget)
	}
	if rec.retries.Load() == 0 {
		t.Fatal("transient failures were never retried")
	}

	// The acceptance bar: no busy-loop — once poisoned, the retry counter
	// stops growing.
	m1 := l.Metrics()
	time.Sleep(50 * time.Millisecond)
	m2 := l.Metrics()
	if m2.FlushRetries != m1.FlushRetries {
		t.Fatalf("flush retries still growing after poison: %d -> %d", m1.FlushRetries, m2.FlushRetries)
	}
	if !m2.Poisoned || m2.FlushFailures == 0 {
		t.Fatalf("metrics: poisoned=%v failures=%d", m2.Poisoned, m2.FlushFailures)
	}
}

func TestTransientFaultsHealWithinBudget(t *testing.T) {
	l, em, faulty, _ := faultyLog(t, retry.Policy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond})
	faulty.FailEveryNthWrite(2) // every other write fails; the retry lands on success
	fillPages(t, l, em, 6)

	waitFor(t, "flush progress under faults", func() bool { return l.FlushedUntilAddress() > 0 })
	if l.Poisoned() {
		t.Fatalf("alternating transient faults poisoned the log: %v", l.WriteFailure())
	}
	if _, w := faulty.InjectedFaults(); w == 0 {
		t.Fatal("no write faults injected; test exercised nothing")
	}
}

func TestCloseCancelsOutstandingRetryTimers(t *testing.T) {
	t.Run("flush", func(t *testing.T) {
		em := epoch.New(64)
		mem := device.NewMem(device.MemConfig{})
		faulty := device.NewFaulty(mem)
		l, err := New(Config{
			PageBits: 12, BufferPages: 4, MutableFraction: 0.5,
			Mode: ModeHybrid, Device: faulty, Epoch: em,
			// Long backoff: timers are guaranteed still pending at Close.
			WriteRetry: retry.Policy{MaxAttempts: 1000, BaseDelay: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()

		faulty.FailEveryNthWrite(1)
		fillPages(t, l, em, 3)
		waitFor(t, "a pending retry timer", func() bool { return l.retryTimerCount() > 0 })

		retriesBefore := l.Metrics().FlushRetries
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := l.retryTimerCount(); n != 0 {
			t.Fatalf("%d retry timers survived Close", n)
		}
		// Nothing may fire after Close: the pre-hardening code leaked a
		// 1ms AfterFunc chain that kept re-arming against the closed log.
		time.Sleep(20 * time.Millisecond)
		if got := l.Metrics().FlushRetries; got != retriesBefore {
			t.Fatalf("flush retries advanced after Close: %d -> %d", retriesBefore, got)
		}
		if l.retryTimerCount() != 0 {
			t.Fatal("retry timer re-armed after Close")
		}
	})
	t.Run("read", testCloseCancelsReadRetry)
}

// testCloseCancelsReadRetry parks a failed read in its backoff and closes
// the log: the read's callback runs exactly once, with ErrClosed, and no
// timer survives Close.
func testCloseCancelsReadRetry(t *testing.T) {
	em := epoch.New(64)
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	l, err := New(Config{
		PageBits: 12, BufferPages: 4, MutableFraction: 0.5,
		Mode: ModeHybrid, Device: faulty, Epoch: em,
		ReadRetry: retry.Policy{MaxAttempts: 1000, BaseDelay: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailEveryNthRead(1)
	var calls atomic.Int64
	var got atomic.Pointer[error]
	l.ReadAsync(FirstValidAddress, make([]byte, 64), 0, func(err error) {
		calls.Add(1)
		got.Store(&err)
	})
	waitFor(t, "a pending read retry timer", func() bool { return l.retryTimerCount() > 0 })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.retryTimerCount(); n != 0 {
		t.Fatalf("%d retry timers survived Close", n)
	}
	// Past the stopped timer's whole jitter envelope: nothing fires late.
	time.Sleep(100 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Fatalf("read callback ran %d times, want exactly once", n)
	}
	if err := *got.Load(); !errors.Is(err, ErrClosed) {
		t.Fatalf("read callback got %v, want ErrClosed", err)
	}
}
