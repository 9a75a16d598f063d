package hlog

import (
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
)

// TruncateUntil discards the log prefix below addr (expiration-based GC,
// Appendix C): it advances begin under an epoch bump + drain and then
// frees the device range, as Store.TruncateUntil does without the store's
// checkpoint limit. The calling goroutine must not hold an active
// (unparked) epoch guard, or the drain cannot complete.
func (l *Log) TruncateUntil(addr Address) error {
	if _, err := l.ShiftBeginAddress(addr, nil); err != nil {
		return err
	}
	return l.ApplyDeviceTruncation(addr)
}

// truncLog builds a hybrid log over a Faulty(Mem) device so tests can
// observe the exact device operations truncation issues.
func truncLog(t *testing.T, bufferPages int) (*Log, *epoch.Manager, *device.Faulty) {
	t.Helper()
	em := epoch.New(64)
	mem := device.NewMem(device.MemConfig{})
	dev := device.NewFaulty(mem)
	l, err := New(Config{
		PageBits:        12,
		BufferPages:     bufferPages,
		MutableFraction: 0.5,
		Mode:            ModeHybrid,
		Device:          dev,
		Epoch:           em,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); mem.Close() })
	return l, em, dev
}

// fillLog allocates until the head has advanced past FirstValidAddress,
// guaranteeing a non-empty stable region to truncate.
func fillLog(t *testing.T, l *Log, g *epoch.Guard) {
	t.Helper()
	for i := 0; i < 4*8*8; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
		if l.HeadAddress() > 4*l.PageSize() {
			return
		}
	}
	if l.HeadAddress() <= FirstValidAddress {
		t.Skip("head did not advance enough")
	}
}

// TestTruncateOrderingUnderConcurrency is the regression test for the
// out-of-order device-truncate race: concurrent TruncateUntil callers
// could CAS begin monotonically but invoke dev.Truncate in the wrong
// order, so a truncate-to-low landing after a truncate-to-high
// resurrected the freed range. Device truncates must arrive strictly
// increasing regardless of the callers' schedule.
func TestTruncateOrderingUnderConcurrency(t *testing.T) {
	l, em, dev := truncLog(t, 8)
	g := em.Acquire()
	fillLog(t, l, g)
	g.Release()

	var mu sync.Mutex
	var offsets []uint64
	dev.SetHook(func(op device.Op, offset uint64, length int) error {
		if op == device.OpTruncate {
			mu.Lock()
			offsets = append(offsets, offset)
			// Stall low truncates so high ones queue up behind the
			// serialization, which is exactly where the old code let
			// them overtake.
			if offset < l.HeadAddress()/2 {
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
			}
			mu.Unlock()
		}
		return nil
	})

	head := l.HeadAddress()
	cuts := []Address{head / 8, head / 2, head / 4, head * 3 / 4, head / 3}
	var wg sync.WaitGroup
	for _, cut := range cuts {
		if cut == 0 {
			continue
		}
		wg.Add(1)
		go func(cut Address) {
			defer wg.Done()
			if err := l.TruncateUntil(cut); err != nil {
				t.Errorf("TruncateUntil(%#x): %v", cut, err)
			}
		}(cut)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(offsets) == 0 {
		t.Fatal("no device truncates observed")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Fatalf("device truncates out of order: %#x after %#x (all: %#x)",
				offsets[i], offsets[i-1], offsets)
		}
	}
	want := head * 3 / 4
	if got := l.BeginAddress(); got != want {
		t.Fatalf("begin = %#x, want %#x", got, want)
	}
	if got := l.TruncatedUntil(); got != pageFloor(l, want) {
		t.Fatalf("device watermark = %#x, want %#x", got, pageFloor(l, want))
	}
}

// pageFloor is the device watermark a truncation to addr leaves: device
// truncation is page-granular, so the page holding a mid-page begin stays
// readable from its first byte.
func pageFloor(l *Log, addr Address) Address { return addr &^ (l.PageSize() - 1) }

// TestTruncateWaitsForEpochDrain verifies the epoch-safety half of the
// fix: begin may move immediately, but the device truncate must not be
// applied while a straggler guard could still be reading the old range.
func TestTruncateWaitsForEpochDrain(t *testing.T) {
	l, em, _ := truncLog(t, 8)
	g := em.Acquire()
	fillLog(t, l, g)

	// g is now a straggler: active and never refreshed past the bump the
	// truncation is about to publish.
	cut := l.HeadAddress() / 2
	done := make(chan error, 1)
	go func() { done <- l.TruncateUntil(cut) }()

	// begin advances promptly (new reads are fenced off)…
	deadline := time.Now().Add(2 * time.Second)
	for l.BeginAddress() != cut {
		if time.Now().After(deadline) {
			t.Fatal("begin never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	// …but the device must stay untouched while the straggler is live.
	time.Sleep(20 * time.Millisecond)
	if got := l.TruncatedUntil(); got != 0 {
		t.Fatalf("device truncated to %#x while a guard was still active", got)
	}

	g.Park()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := l.TruncatedUntil(); got != pageFloor(l, cut) {
		t.Fatalf("device watermark = %#x, want %#x", got, pageFloor(l, cut))
	}
	g.Unpark()
	g.Release()
}

// TestApplyDeviceTruncationClamps verifies the deferred-truncation path
// used when a checkpoint's durable Begin lags the in-memory one: the
// device truncate is clamped to the caller's limit and catches up later.
func TestApplyDeviceTruncationClamps(t *testing.T) {
	l, em, _ := truncLog(t, 8)
	g := em.Acquire()
	fillLog(t, l, g)
	g.Park()

	cut := l.HeadAddress() / 2
	limit := cut / 2
	if advanced, err := l.ShiftBeginAddress(cut, nil); err != nil || !advanced {
		t.Fatalf("ShiftBeginAddress = (%v, %v)", advanced, err)
	}
	if err := l.ApplyDeviceTruncation(limit); err != nil {
		t.Fatal(err)
	}
	if got := l.TruncatedUntil(); got != pageFloor(l, limit) {
		t.Fatalf("device watermark = %#x, want clamped %#x", got, pageFloor(l, limit))
	}
	// Re-applying a lower limit must be a no-op, not a regression.
	if err := l.ApplyDeviceTruncation(limit / 2); err != nil {
		t.Fatal(err)
	}
	if got := l.TruncatedUntil(); got != pageFloor(l, limit) {
		t.Fatalf("device watermark regressed to %#x", l.TruncatedUntil())
	}
	// Raising the limit catches the device up to the epoch-safe begin.
	if err := l.ApplyDeviceTruncation(l.TailAddress()); err != nil {
		t.Fatal(err)
	}
	if got := l.TruncatedUntil(); got != pageFloor(l, cut) {
		t.Fatalf("device watermark = %#x, want %#x", got, pageFloor(l, cut))
	}
	g.Unpark()
	g.Release()
}
