package hlog

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
)

// testLog builds a log with small pages for fast wrap-around.
func testLog(t *testing.T, mode Mode, bufferPages int, mutable float64) (*Log, *epoch.Manager, *device.Mem) {
	t.Helper()
	em := epoch.New(64)
	dev := device.NewMem(device.MemConfig{})
	l, err := New(Config{
		PageBits:        12, // 4 KB pages
		BufferPages:     bufferPages,
		MutableFraction: mutable,
		Mode:            mode,
		Device:          dev,
		Epoch:           em,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); dev.Close() })
	return l, em, dev
}

func TestNewValidation(t *testing.T) {
	em := epoch.New(4)
	cases := []Config{
		{PageBits: 4, BufferPages: 4, Mode: ModeHybrid, Device: device.NewNull(), Epoch: em},
		{PageBits: 12, BufferPages: 3, Mode: ModeHybrid, Device: device.NewNull(), Epoch: em},
		{PageBits: 12, BufferPages: 4, Mode: ModeHybrid, Device: nil, Epoch: em},
		{PageBits: 12, BufferPages: 4, Mode: ModeHybrid, Device: device.NewNull(), Epoch: nil},
		{PageBits: 12, BufferPages: 4, Mode: ModeHybrid, MutableFraction: 2, Device: device.NewNull(), Epoch: em},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for config %+v", i, cfg)
		}
	}
}

func TestAllocateSequential(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()

	a1, err := l.Allocate(64, g)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != FirstValidAddress {
		t.Fatalf("first allocation at %#x, want %#x", a1, FirstValidAddress)
	}
	a2, err := l.Allocate(32, g)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1+64 {
		t.Fatalf("second allocation at %#x, want %#x", a2, a1+64)
	}
	if tail := l.TailAddress(); tail != a2+32 {
		t.Fatalf("tail = %#x, want %#x", tail, a2+32)
	}
}

func TestAllocateRejectsBadSizes(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	if _, err := l.Allocate(0, g); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := l.Allocate(12, g); err == nil {
		t.Error("non-multiple-of-8 size should fail")
	}
	if _, err := l.Allocate(uint32(l.PageSize()), g); err != ErrRecordTooLarge {
		t.Errorf("page-sized allocation error = %v, want ErrRecordTooLarge", err)
	}
}

func TestAllocateCrossesPageBoundary(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	pageSize := l.PageSize()

	// Fill most of page 0, then allocate something that cannot fit.
	var last Address
	allocated := FirstValidAddress
	for allocated+512 <= pageSize {
		a, err := l.Allocate(512, g)
		if err != nil {
			t.Fatal(err)
		}
		last = a
		allocated += 512
	}
	a, err := l.Allocate(512, g)
	if err != nil {
		t.Fatal(err)
	}
	if a>>12 != 1 || a&(pageSize-1) != 0 {
		t.Fatalf("boundary-crossing allocation at %#x, want start of page 1", a)
	}
	if last>>12 != 0 {
		t.Fatalf("last fitting allocation escaped page 0: %#x", last)
	}
}

func TestWriteReadBackInMemoryRegion(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	a, err := l.Allocate(24, g)
	if err != nil {
		t.Fatal(err)
	}
	copy(l.Slice(a), "hello hybrid log data!!!") // 24 bytes
	got := l.Slice(a)[:24]
	if string(got) != "hello hybrid log data!!!" {
		t.Fatalf("read back %q", got)
	}
}

func TestUint64PtrAligned(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	a, _ := l.Allocate(16, g)
	p := l.Uint64Ptr(a)
	*p = 0xdeadbeefcafef00d
	if got := binary.LittleEndian.Uint64(l.Slice(a)); got != 0xdeadbeefcafef00d {
		t.Fatalf("word readback = %#x", got)
	}
}

func TestReadOnlyShiftsWithTail(t *testing.T) {
	// 8 pages, 50% mutable => roLag = 4 pages. After allocating into page
	// 6, readOnly should be at page 3 start (7<<12 - 4<<12 after opening
	// page 6... verify monotone growth and lag).
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 6*8; i++ { // 6 pages of 8 x 512B
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
	}
	g.Refresh()
	em.Drain()
	ro := l.ReadOnlyAddress()
	tailPage := l.TailAddress() >> 12
	wantRO := (tailPage << 12) - 4<<12
	if ro != wantRO {
		t.Fatalf("readOnly = %#x, want %#x (tail page %d)", ro, wantRO, tailPage)
	}
	if srо := l.SafeReadOnlyAddress(); srо != ro {
		t.Fatalf("safeRO = %#x, want %#x after refresh+drain", srо, ro)
	}
}

func TestSafeReadOnlyLagsUntilRefresh(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	lag := em.Acquire() // a second, lagging thread pins the epoch

	for i := 0; i < 6*8; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
	}
	g.Refresh()
	em.Drain()
	if l.ReadOnlyAddress() == 0 {
		t.Fatal("readOnly did not advance")
	}
	if l.SafeReadOnlyAddress() != 0 {
		t.Fatalf("safeRO advanced to %#x while a thread lagged", l.SafeReadOnlyAddress())
	}
	lag.Refresh()
	em.Drain()
	if l.SafeReadOnlyAddress() != l.ReadOnlyAddress() {
		t.Fatalf("safeRO = %#x, want %#x after lagging thread refreshed",
			l.SafeReadOnlyAddress(), l.ReadOnlyAddress())
	}
	lag.Release()
}

func TestFlushHappensForReadOnlyPages(t *testing.T) {
	l, em, dev := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	// Write a recognizable pattern into each record.
	for i := 0; i < 6*8; i++ {
		a, err := l.Allocate(512, g)
		if err != nil {
			t.Fatal(err)
		}
		buf := l.Slice(a)[:512]
		for j := range buf {
			buf[j] = byte(i)
		}
		g.Refresh()
	}
	em.Drain()
	ro := l.SafeReadOnlyAddress()
	if ro == 0 {
		t.Fatal("no pages became read-only")
	}
	if err := l.WaitUntilFlushed(ro, nil); err != nil {
		t.Fatal(err)
	}
	// Every flushed record must be readable from the device.
	got := make([]byte, 512)
	done := make(chan error, 1)
	dev.ReadAsync(got, uint64(FirstValidAddress), func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0}, 512)) {
		t.Fatalf("record 0 content mismatch from device")
	}
}

func TestBufferWrapEvictsAndRecycles(t *testing.T) {
	// Allocate far more than the buffer holds; head must advance and
	// frames recycle without corruption.
	l, em, _ := testLog(t, ModeHybrid, 4, 0.5)
	g := em.Acquire()
	defer g.Release()
	const records = 4 * 8 * 5 // 5 buffers' worth
	addrs := make([]Address, 0, records)
	for i := 0; i < records; i++ {
		a, err := l.Allocate(512, g)
		if err != nil {
			t.Fatal(err)
		}
		buf := l.Slice(a)[:512]
		binary.LittleEndian.PutUint64(buf, uint64(i))
		addrs = append(addrs, a)
		g.Refresh()
	}
	if l.HeadAddress() == 0 {
		t.Fatal("head never advanced despite buffer wrap")
	}
	// In-memory records readable via Slice; evicted ones via the device.
	for i, a := range addrs {
		var buf [8]byte
		if l.InMemory(a) {
			copy(buf[:], l.Slice(a))
		} else {
			if err := l.WaitUntilFlushed(a+512, nil); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			l.ReadAsync(a, buf[:], func(err error) { done <- err })
			if err := <-done; err != nil {
				t.Fatalf("record %d at %#x: %v", i, a, err)
			}
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != uint64(i) {
			t.Fatalf("record %d at %#x: got %d", i, a, got)
		}
	}
}

func TestAppendOnlyModeReadOnlyTracksTail(t *testing.T) {
	l, em, _ := testLog(t, ModeAppendOnly, 8, 0.9)
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 3*8; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
	em.Drain()
	// In append-only mode no record is ever mutable: the read-only
	// boundary reports the tail itself (§5.3).
	if ro := l.ReadOnlyAddress(); ro != l.TailAddress() {
		t.Fatalf("append-only readOnly = %#x, want tail %#x", ro, l.TailAddress())
	}
	// The internal flush driver still advances at page granularity.
	tailPageStart := (l.TailAddress() >> 12) << 12
	if sro := l.safeRO.Load(); sro != tailPageStart {
		t.Fatalf("append-only internal safeRO = %#x, want tail page start %#x", sro, tailPageStart)
	}
}

func TestInMemoryModeGrowsWithoutDevice(t *testing.T) {
	em := epoch.New(8)
	l, err := New(Config{PageBits: 12, Mode: ModeInMemory, Epoch: em, MaxInMemoryPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 20*8; i++ { // 20 pages, far beyond any fixed buffer
		a, err := l.Allocate(512, g)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(l.Slice(a), uint64(i))
	}
	if l.HeadAddress() != 0 {
		t.Fatal("in-memory mode must never evict")
	}
	if l.ReadOnlyAddress() != 0 {
		t.Fatal("in-memory mode must never become read-only")
	}
}

func TestShiftReadOnlyToTail(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.9)
	g := em.Acquire()
	for i := 0; i < 10; i++ {
		if _, err := l.Allocate(256, g); err != nil {
			t.Fatal(err)
		}
	}
	tail := l.ShiftReadOnlyToTail()
	g.Refresh()
	em.Drain()
	g.Release()
	if l.SafeReadOnlyAddress() != tail {
		t.Fatalf("safeRO = %#x, want tail %#x", l.SafeReadOnlyAddress(), tail)
	}
	if err := l.WaitUntilFlushed(tail, nil); err != nil {
		t.Fatal(err)
	}
}

// A read-only shift registered after the waiter's last refresh can only
// flush once the waiter refreshes again, so WaitUntilFlushed must refresh
// the guard it is given (the Compact hang: an openPage shifted read-only
// between Compact's ShiftReadOnlyToTail and its wait).
func TestWaitUntilFlushedRefreshesGuard(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.9)
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 10; i++ {
		if _, err := l.Allocate(256, g); err != nil {
			t.Fatal(err)
		}
	}
	tail := l.ShiftReadOnlyToTail()
	done := make(chan error, 1)
	go func() { done <- l.WaitUntilFlushed(tail, g) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitUntilFlushed did not return: the caller's guard pins the flush")
	}
}

func TestTruncateUntil(t *testing.T) {
	l, em, dev := testLog(t, ModeHybrid, 4, 0.5)
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 4*8*3; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
	cut := l.HeadAddress() / 2
	if cut == 0 {
		t.Skip("head did not advance enough")
	}
	// TruncateUntil drains an epoch bump; the caller must not hold an
	// active guard or the drain never completes.
	g.Park()
	if err := l.TruncateUntil(cut); err != nil {
		t.Fatal(err)
	}
	g.Unpark()
	if l.BeginAddress() != cut {
		t.Fatalf("begin = %#x, want %#x", l.BeginAddress(), cut)
	}
	// Reads below the cut must fail at the device.
	buf := make([]byte, 8)
	done := make(chan error, 1)
	dev.ReadAsync(buf, 0, func(err error) { done <- err })
	if err := <-done; err == nil {
		t.Fatal("read below truncation point should fail")
	}
}

func TestConcurrentAllocators(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	const (
		workers       = 8
		perWorker     = 400
		recordSize    = 128
		payloadOffset = 8
	)
	var wg sync.WaitGroup
	addrCh := make(chan Address, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for i := 0; i < perWorker; i++ {
				a, err := l.Allocate(recordSize, g)
				if err != nil {
					t.Error(err)
					return
				}
				buf := l.Slice(a)[:recordSize]
				binary.LittleEndian.PutUint64(buf, uint64(id)<<32|uint64(i))
				binary.LittleEndian.PutUint64(buf[payloadOffset:], a)
				addrCh <- a
				if i%16 == 0 {
					g.Refresh()
				}
			}
		}(w)
	}
	wg.Wait()
	close(addrCh)
	em.Drain()

	// No two allocations may overlap, and in-memory ones must still hold
	// their self-describing address.
	seen := map[Address]bool{}
	for a := range addrCh {
		if seen[a] {
			t.Fatalf("address %#x allocated twice", a)
		}
		seen[a] = true
		if a%8 != 0 {
			t.Fatalf("address %#x not 8-byte aligned", a)
		}
		if l.InMemory(a) {
			if got := binary.LittleEndian.Uint64(l.Slice(a)[payloadOffset:]); got != a {
				t.Fatalf("record at %#x corrupted: self-address %#x", a, got)
			}
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("allocated %d records, want %d", len(seen), workers*perWorker)
	}
}

func TestMarkerOrderingInvariant(t *testing.T) {
	// begin <= head <= safeRO <= readOnly <= tail at every step.
	l, em, _ := testLog(t, ModeHybrid, 4, 0.5)
	g := em.Acquire()
	defer g.Release()
	check := func() {
		b, h, s, r, ta := l.BeginAddress(), l.HeadAddress(), l.SafeReadOnlyAddress(), l.ReadOnlyAddress(), l.TailAddress()
		if !(h <= s && s <= r && r <= ta) {
			t.Fatalf("marker invariant violated: head=%#x safeRO=%#x ro=%#x tail=%#x", h, s, r, ta)
		}
		_ = b
	}
	for i := 0; i < 4*8*4; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
		check()
	}
}

func TestAllocateAfterCloseFails(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	l.Close()
	if _, err := l.Allocate(64, g); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestWatermarkContiguity(t *testing.T) {
	var w watermark
	w.init()
	w.complete(100, 200) // out of order
	if w.level() != 0 {
		t.Fatalf("level = %d, want 0", w.level())
	}
	w.complete(0, 50)
	if w.level() != 50 {
		t.Fatalf("level = %d, want 50", w.level())
	}
	w.complete(50, 100)
	if w.level() != 200 {
		t.Fatalf("level = %d, want 200", w.level())
	}
}

// Property: completing any permutation of contiguous chunks yields a level
// equal to the total.
func TestQuickWatermarkPermutations(t *testing.T) {
	f := func(sizes []uint8, order []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		type rng struct{ s, e uint64 }
		var rngs []rng
		var pos uint64
		for _, sz := range sizes {
			n := uint64(sz)%64 + 1
			rngs = append(rngs, rng{pos, pos + n})
			pos += n
		}
		// Apply a permutation derived from order.
		perm := make([]int, len(rngs))
		for i := range perm {
			perm[i] = i
		}
		for i, o := range order {
			j := int(o) % len(perm)
			perm[i%len(perm)], perm[j] = perm[j], perm[i%len(perm)]
		}
		var w watermark
		w.init()
		for _, idx := range perm {
			w.complete(rngs[idx].s, rngs[idx].e)
		}
		return w.level() == pos
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random record sizes, consecutive single-threaded
// allocations never overlap and never cross a page boundary.
func TestQuickAllocationsNonOverlapping(t *testing.T) {
	f := func(rawSizes []uint16) bool {
		em := epoch.New(8)
		dev := device.NewMem(device.MemConfig{})
		defer dev.Close()
		l, err := New(Config{PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
			Mode: ModeHybrid, Device: dev, Epoch: em})
		if err != nil {
			return false
		}
		defer l.Close()
		g := em.Acquire()
		defer g.Release()
		if len(rawSizes) > 200 {
			rawSizes = rawSizes[:200]
		}
		type alloc struct {
			a    Address
			size uint64
		}
		var prev *alloc
		for _, rs := range rawSizes {
			size := (uint32(rs)%512 + 8) &^ 7
			a, err := l.Allocate(size, g)
			if err != nil {
				return false
			}
			if a%8 != 0 {
				return false
			}
			if a>>12 != (a+uint64(size)-1)>>12 {
				return false // crossed a page
			}
			if prev != nil && a < prev.a+prev.size && prev.a < a+uint64(size) {
				return false // overlap
			}
			prev = &alloc{a, uint64(size)}
			g.Refresh()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTailAddressDuringPageRoll(t *testing.T) {
	// Regression: while a page roll is in flight the tail word holds an
	// offset beyond the page size; the clamped offset must be ADDED to
	// the page base, not OR'd (off == pageSize collides with the page
	// number's lowest bit for odd pages, reporting a tail one full page
	// too low — which in append-only mode corrupted the read-only
	// boundary and let "in-place" updates race with flushes).
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	// Fill page 0 exactly and start page 1.
	for i := 0; i < 8; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
	}
	for l.TailAddress()>>12 != 1 {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a mid-roll tail word on an odd page: page 1, offset
	// beyond the 4 KB page.
	l.tailWord.Store(1<<32 | (l.pageSize + 24))
	if got, want := l.TailAddress(), uint64(2)<<12; got != want {
		t.Fatalf("mid-roll TailAddress = %#x, want %#x", got, want)
	}
	l.tailWord.Store(2<<32 | (l.pageSize + 24)) // even page: also next page start
	if got, want := l.TailAddress(), uint64(3)<<12; got != want {
		t.Fatalf("mid-roll TailAddress = %#x, want %#x", got, want)
	}
}

func TestRecoverToPositionsMarkers(t *testing.T) {
	em := epoch.New(8)
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	l, err := New(Config{PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		Mode: ModeHybrid, Device: dev, Epoch: em})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Pretend a previous incarnation flushed everything below 0x2345.
	if err := l.RecoverTo(FirstValidAddress, 0x2345); err != nil {
		t.Fatal(err)
	}
	// Allocation resumes at the start of the page after 0x2345.
	resume := uint64(0x3000)
	if l.TailAddress() != resume {
		t.Fatalf("tail = %#x, want %#x", l.TailAddress(), resume)
	}
	if l.HeadAddress() != resume || l.SafeReadOnlyAddress() != resume {
		t.Fatalf("head=%#x safeRO=%#x, want both %#x",
			l.HeadAddress(), l.SafeReadOnlyAddress(), resume)
	}
	if l.FlushedUntilAddress() != resume {
		t.Fatalf("flushed = %#x, want %#x", l.FlushedUntilAddress(), resume)
	}
	// The device holds the rest of the tail page, zeroed, so a read may
	// run from below the tail to the page end.
	pad := make([]byte, resume-0x2345)
	done := make(chan error, 1)
	dev.ReadAsync(pad, 0x2345, func(err error) { done <- err })
	if err, zeroed := <-done, bytes.Equal(pad, make([]byte, len(pad))); err != nil || !zeroed {
		t.Fatalf("device past the recovered tail: err %v, zeroed %v", err, zeroed)
	}
	// The log is usable: allocate and wrap several buffers' worth.
	g := em.Acquire()
	defer g.Release()
	for i := 0; i < 8*8*3; i++ {
		if _, err := l.Allocate(512, g); err != nil {
			t.Fatal(err)
		}
		g.Refresh()
	}
}

func TestRecoverToRejectsUsedLog(t *testing.T) {
	l, em, _ := testLog(t, ModeHybrid, 8, 0.5)
	g := em.Acquire()
	defer g.Release()
	l.Allocate(64, g)
	if err := l.RecoverTo(FirstValidAddress, 0x1000); err == nil {
		t.Fatal("RecoverTo on a used log should fail")
	}
}

func TestRecoverToRejectsInMemory(t *testing.T) {
	em := epoch.New(4)
	l, err := New(Config{PageBits: 12, Mode: ModeInMemory, Epoch: em, MaxInMemoryPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RecoverTo(FirstValidAddress, 0x1000); err == nil {
		t.Fatal("RecoverTo on an in-memory log should fail")
	}
}

func TestRecycledFrameReadsZeroPastLastRecord(t *testing.T) {
	// Fill every page with non-zero records for several laps of the ring.
	// Whenever a record opens a page, everything past it on that page
	// must read zero, the recycled frames included: a scan stops at the
	// first zero header.
	l, em, _ := testLog(t, ModeHybrid, 4, 0.5)
	g := em.Acquire()
	defer g.Release()
	const size = 512
	opened := 0
	for lastPage := l.pageOf(l.TailAddress()); opened < 4*4; g.Refresh() {
		a, err := l.Allocate(size, g)
		if err != nil {
			t.Fatal(err)
		}
		page := l.Slice(a)
		if l.pageOf(a) != lastPage {
			lastPage = l.pageOf(a)
			opened++
			for i, b := range page[size:] {
				if b != 0 {
					t.Fatalf("page %d (lap %d): byte %d past its first record = %#x", lastPage, lastPage/4, size+i, b)
				}
			}
		}
		for i := range page[:size] {
			page[i] = 0xff
		}
	}
}
