package hlog

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
)

// Lifetime tests: the frames are arena memory that Close unmaps, so a
// device that reads a flush write's buffer after Close has returned faults.
// They are meant to run without the race detector too (the race build
// keeps frames on the Go heap, where such a read goes unnoticed).

const lifetimePageBits = 14 // 16 KiB pages: a 64 KiB ring, mapped outside race builds

// lifetimeLog builds a hybrid log over dev with a four-page ring.
func lifetimeLog(t *testing.T, dev device.Device) (*Log, *epoch.Manager) {
	t.Helper()
	em := epoch.New(8)
	l, err := New(Config{
		PageBits:        lifetimePageBits,
		BufferPages:     4,
		MutableFraction: 0.5,
		Mode:            ModeHybrid,
		Device:          dev,
		Epoch:           em,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, em
}

// fillAndFlush writes 64-byte records stamped with their own address over
// three pages, then turns everything read-only, which hands the flush of
// every page to the device. It returns the tail.
func fillAndFlush(t *testing.T, l *Log, em *epoch.Manager) Address {
	t.Helper()
	g := em.Acquire()
	for l.TailAddress() < 3<<lifetimePageBits {
		a, err := l.Allocate(64, g)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(l.Slice(a), a)
	}
	tail := l.ShiftReadOnlyToTail()
	g.Release()
	em.Drain() // runs the flush action
	if l.FlushIssuedAddress() < tail {
		t.Fatalf("flush issued to %#x, want %#x", l.FlushIssuedAddress(), tail)
	}
	return tail
}

// readBack reads [from, to) from mem.
func readBack(t *testing.T, mem *device.Mem, from, to Address) []byte {
	t.Helper()
	buf := make([]byte, to-from)
	done := make(chan error, 1)
	mem.ReadAsync(buf, from, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("read [%#x,%#x): %v", from, to, err)
	}
	return buf
}

// checkStamps verifies every record stamp in buf, which holds [from, to).
func checkStamps(t *testing.T, buf []byte, from, to Address) {
	t.Helper()
	for a := max(from, FirstValidAddress); a+8 <= to; a += 64 {
		if got := binary.LittleEndian.Uint64(buf[a-from:]); got != a {
			t.Fatalf("device word at %#x = %#x, want its address", a, got)
		}
	}
}

// TestCloseWaitsForDelayedFlush closes the log while every flush write is
// still held back by a device.Faulty's injected latency. Close must not
// return, and so must not unmap the frames, before the device has taken
// each write's bytes and called back.
func TestCloseWaitsForDelayedFlush(t *testing.T) {
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	dev := device.NewFaulty(mem)
	dev.InjectLatency(0, 50*time.Millisecond)
	l, em := lifetimeLog(t, dev)
	tail := fillAndFlush(t, l, em)
	if l.FlushedUntilAddress() >= tail {
		t.Fatal("flush completed before its injected latency")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.FlushedUntilAddress(); got < tail {
		t.Fatalf("Close returned with flushes outstanding: flushed to %#x of %#x", got, tail)
	}
	checkStamps(t, readBack(t, mem, 0, tail), 0, tail)
}

// TestCloseWaitsForTornCrashWrite arms a crash point inside the second
// page's flush and slows the inner device's writes, so the torn prefix
// reaches it well after Close is called. Close must wait for it; the
// prefix the device stores must be the frame's bytes.
func TestCloseWaitsForTornCrashWrite(t *testing.T) {
	const page = 1 << lifetimePageBits
	mem := device.NewMem(device.MemConfig{WriteBandwidth: 1 << 20}) // a page lands in ~16 ms
	defer mem.Close()
	dev := device.NewFaulty(mem)
	dev.CrashAfterBytes(page + page/2)
	l, em := lifetimeLog(t, dev)
	fillAndFlush(t, l, em)
	if err := l.Close(); err != nil && !dev.Broken() {
		t.Fatal(err)
	}
	if dev.TornWriteCount() != 1 {
		t.Fatalf("torn writes = %d, want 1", dev.TornWriteCount())
	}
	// Flushes start at address 0, so the first write is a whole page and
	// the torn one keeps the half page left of the budget.
	tornEnd := Address(page + page/2)
	checkStamps(t, readBack(t, mem, page, tornEnd), page, tornEnd)
}
