// Package hlog implements the HybridLog record allocator from Sections 5
// and 6 of the FASTER paper (SIGMOD 2018), together with its append-only
// configuration, the log allocator of Section 5. The pure in-memory
// allocator of Section 4 is a hybrid log over a device.Null whose ring is
// sized to hold all its data.
//
// The log defines a 48-bit global logical address space spanning main
// memory and secondary storage. The in-memory tail portion lives in a
// bounded ring of page frames. Four monotone address markers
// partition the space (Fig 5 and Fig 7 of the paper):
//
//	begin ≤ head ≤ safeReadOnly ≤ readOnly ≤ tail
//
//	[begin, head)         stable region, on the device only
//	[head, safeReadOnly)  read-only region, in memory, immutable
//	[safeReadOnly, readOnly) fuzzy region (§6.2–6.3)
//	[readOnly, tail)      mutable region, updated in place
//
// The ring is one block outside the Go heap (internal/arena), addressed
// as []uint64 so that every 8-byte word can be manipulated with
// sync/atomic; records never span pages and are 8-byte aligned. Flushing
// and eviction are coordinated latch-free with epoch trigger actions,
// exactly as in Algorithm 1 of the paper.
package hlog

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/metrics"
	"repro/internal/retry"
)

// Address is a 48-bit logical address into the log.
type Address = uint64

// InvalidAddress is the zero address; no record is ever allocated there.
const InvalidAddress Address = 0

// FirstValidAddress is where allocation starts: the first 64 bytes of the
// address space are reserved so that 0 can mean "empty" in index entries.
const FirstValidAddress Address = 64

// Mode selects which of the paper's log allocators this log behaves as.
type Mode int

const (
	// ModeHybrid is the HybridLog of Section 6: an in-place-updatable
	// mutable region, a read-only region, and a stable region on storage.
	ModeHybrid Mode = iota
	// ModeAppendOnly is the log-structured allocator of Section 5: the
	// read-only offset tracks the tail, so every update is a read-copy-
	// update append.
	ModeAppendOnly
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeAppendOnly:
		return "append-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Log.
type Config struct {
	// PageBits is F: pages are 1<<F bytes. Must be in [9, 30].
	PageBits uint
	// BufferPages is the number of page frames in the ring (a power of
	// two, at least 2).
	BufferPages int
	// MutableFraction is the fraction of the ring kept as the
	// in-place-updatable (mutable) region; the paper recommends 0.9
	// (§6.4). Forced to 0 for ModeAppendOnly. A hybrid log rounds it down
	// to whole pages and keeps at least two pages read-only (one in a
	// 2-page ring); see New.
	MutableFraction float64
	// Mode selects the allocator behaviour.
	Mode Mode
	// Device receives flushed pages and serves record reads. Required. A
	// device.Null discards what it is given, so a log over it holds only
	// what its ring holds: the in-memory store of Section 4, sized so
	// nothing evicts.
	Device device.Device
	// Epoch is the shared epoch manager. Required.
	Epoch *epoch.Manager

	// ReadRetry and WriteRetry bound the retries of the log's device reads
	// and writes (page flushes and RecoverTo's pad); the zero values select
	// retry.DefaultRead() and retry.DefaultWrite(). Every device I/O of the
	// log takes one retry path (attempt): a failure device.Classify calls
	// Transient is retried with backoff up to the attempt budget; a
	// Permanent one or an exhausted budget ends the I/O with its error. A
	// flush that ends so poisons the log tail (see ErrPoisoned).
	ReadRetry, WriteRetry retry.Policy
	// OnRetry, if set, is observed on every retried device read or write.
	// Called from I/O callback goroutines; must not block.
	OnRetry func(err error)
	// OnWriteFailure, if set, is called exactly once when the flush path
	// gives up and poisons the log tail. Called from an I/O callback
	// goroutine; must not block.
	OnWriteFailure func(err error)
	// OnEvict, if set, is called once for each range [from, to) the head
	// offset passes. It runs on the thread opening a page, under that
	// thread's guard, after an epoch drain (every record a thread was
	// writing in the range is whole) and before the range's frames can be
	// reopened (they close only once a further bump drains). It must not
	// allocate from this log. The read cache restores its index entries
	// here.
	OnEvict func(from, to Address)
}

// Frame status values. A frame is one page-sized slot of the ring; its
// bytes are the slot's span of the ring block, and the status is all it
// keeps besides.
const (
	frameFresh  uint32 = iota // never opened: free, and still zero
	frameOpen                 // holds a live page
	frameClosed               // evicted: free for reuse, holds an old page
)

// openFrame readies the frame for page: zeroed, as record scans expect
// past the last record. Arena memory starts zeroed, so only a frame that
// held an earlier page is cleared; clearing a fresh one would only fault
// its memory in ahead of the records. Only the thread that claims the
// frame calls this, after the status load that hands the frame over.
func (l *Log) openFrame(page uint64) {
	status := &l.frames[page&l.frameMask]
	if status.Load() == frameClosed {
		clear(l.Slice(page << l.pageBits))
	}
	status.Store(frameOpen)
}

// cacheLineBytes is the assumed cache line size, matching the epoch
// package; the padding in Log isolates the allocator's write-hot tail
// word from the per-operation marker loads.
const cacheLineBytes = 64

// Log is the HybridLog allocator.
type Log struct {
	cfg       Config
	pageBits  uint
	pageSize  uint64
	frameMask uint64
	roLag     uint64 // bytes between readOnly target and tail page start

	// The ring of page frames: one arena block, power-of-two sized, so
	// the frame holding addr's page holds addr at addr&ringMask.
	ring     []byte
	words    []uint64 // word view of ring
	ringMask uint64

	em  *epoch.Manager
	dev device.Device

	// Packed tail word: high 32 bits page number, low 32 bits offset
	// within the page. See Allocate. Every allocation writes this word,
	// so it gets a cache line to itself: the fields before it are
	// read-only after Open, and the marker words after it are loaded on
	// every operation — sharing a line would put the allocator's store
	// traffic on the read hot path of every session.
	_        [cacheLineBytes - 8]byte
	tailWord atomic.Uint64
	_        [cacheLineBytes - 8]byte

	head       atomic.Uint64 // lowest address resident in memory
	readOnly   atomic.Uint64 // mutable/read-only boundary target
	safeRO     atomic.Uint64 // read-only boundary seen by all threads
	begin      atomic.Uint64 // log truncation point (GC, Appendix C)
	flushIssue atomic.Uint64 // flushes issued up to this address
	flushed    watermark     // contiguous flush completion watermark

	frames []atomic.Uint32 // frame status, one per frame of the ring

	// failure is set once when the flush path exhausts its retry budget
	// (or hits a Permanent error): the log tail is poisoned. Allocation
	// and flush waits fail fast instead of hanging; already-flushed data
	// and the resident region stay readable.
	failure atomic.Pointer[logFailure]

	// Outstanding backoff timers, each with its I/O's callback: Close
	// stops them, so a dead device cannot keep firing retries into a
	// closed log, and calls each stopped I/O back with ErrClosed.
	retryMu     sync.Mutex
	retryTimers map[*time.Timer]device.Callback

	// Truncation state. truncSafe is the highest begin value that has been
	// published under an epoch bump + drain: every thread has observed
	// begin at that level, so no new read below it can be issued. truncMu
	// serializes device truncates and truncDone is the monotone device
	// watermark, so two concurrent truncations can never reach the device
	// out of order (a truncate-to-100 landing after a truncate-to-200
	// would resurrect the freed range).
	truncMu   sync.Mutex
	truncSafe atomic.Uint64
	truncDone atomic.Uint64

	mx struct {
		flushesIssued  metrics.Counter   // page-granular flush writes issued
		flushRetries   metrics.Counter   // failed device writes re-issued
		readRetries    metrics.Counter   // failed device reads re-issued
		flushFailures  metrics.Counter   // flush spans abandoned (poisoned)
		flushedBytes   metrics.Counter   // bytes whose flush completed
		flushLatency   metrics.Histogram // write issue -> completion callback
		evictedPages   metrics.Counter   // frames closed by head advances
		roShifts       metrics.Counter   // read-only offset advances (§6.2)
		headShifts     metrics.Counter   // head offset advances (eviction)
		beginShifts    metrics.Counter   // begin address advances (GC)
		truncations    metrics.Counter   // device truncates applied
		truncatedBytes metrics.Counter   // bytes freed on the device
		frameWait      metrics.Histogram // openPage waits for an evictable frame
		tailContention metrics.Histogram // Allocate spins behind a page-opener
		flushWait      metrics.Histogram // WaitUntilFlushed stall time
	}

	// closed is set under ioMu, which also counts the writes handed to
	// the device whose callbacks have not returned (ioInflight). Close
	// unmaps the frames only once that count drains: a device may copy a
	// write's buffer long after WriteAsync returned, and device.Faulty can
	// hand a delayed or torn write to its inner device after Sync.
	ioMu       sync.Mutex
	ioDrained  sync.Cond
	ioInflight int
	closed     atomic.Bool
}

// logFailure records the first unrecoverable flush error.
type logFailure struct{ err error }

// debugTrap reports whether internal invariant traps are enabled (the
// process-wide FASTER_DEBUG_ASSERT switch shared with the faster layer).
func debugTrap() bool { return metrics.DebugAsserts() }

// Errors returned by the log.
var (
	ErrRecordTooLarge = errors.New("hlog: record larger than page")
	ErrClosed         = errors.New("hlog: closed")
	ErrAddressEvicted = errors.New("hlog: address below head (evicted)")
	// ErrPoisoned marks the log tail as unwritable: a page flush exhausted
	// its retry budget (or failed permanently), so no further allocation
	// can ever become durable. Reads of resident and already-flushed
	// addresses remain valid. errors returned by Allocate and
	// WaitUntilFlushed after poisoning wrap ErrPoisoned and the device
	// cause.
	ErrPoisoned = errors.New("hlog: log tail poisoned by write failure")
	// ErrDeadline ends a read issued past its deadline, or one whose next
	// backoff would sleep past it. It wraps context.DeadlineExceeded.
	ErrDeadline = fmt.Errorf("hlog: read deadline expired: %w", context.DeadlineExceeded)
)

// New creates a Log from cfg.
func New(cfg Config) (*Log, error) {
	if cfg.PageBits < 9 || cfg.PageBits > 30 {
		return nil, fmt.Errorf("hlog: PageBits %d out of range [9,30]", cfg.PageBits)
	}
	if cfg.Epoch == nil {
		return nil, errors.New("hlog: Epoch manager required")
	}
	switch cfg.Mode {
	case ModeAppendOnly:
		cfg.MutableFraction = 0
	case ModeHybrid:
		if cfg.MutableFraction < 0 || cfg.MutableFraction > 1 {
			return nil, fmt.Errorf("hlog: MutableFraction %v out of range", cfg.MutableFraction)
		}
	default:
		return nil, fmt.Errorf("hlog: unknown mode %v", cfg.Mode)
	}
	if cfg.Device == nil {
		return nil, errors.New("hlog: Device required")
	}
	if cfg.BufferPages < 2 || bits.OnesCount(uint(cfg.BufferPages)) != 1 {
		return nil, fmt.Errorf("hlog: BufferPages %d must be a power of two >= 2", cfg.BufferPages)
	}

	if cfg.ReadRetry == (retry.Policy{}) {
		cfg.ReadRetry = retry.DefaultRead()
	}
	if cfg.WriteRetry == (retry.Policy{}) {
		cfg.WriteRetry = retry.DefaultWrite()
	}

	l := &Log{
		cfg:         cfg,
		pageBits:    cfg.PageBits,
		pageSize:    1 << cfg.PageBits,
		frameMask:   uint64(cfg.BufferPages - 1),
		em:          cfg.Epoch,
		dev:         cfg.Device,
		frames:      make([]atomic.Uint32, cfg.BufferPages),
		retryTimers: make(map[*time.Timer]device.Callback),
	}
	l.flushed.init()
	l.ioDrained.L = &l.ioMu

	l.ring = arena.Alloc(cfg.BufferPages << cfg.PageBits)
	l.words = arena.View[uint64](l.ring)
	l.ringMask = uint64(len(l.ring) - 1)
	l.openFrame(0)
	// Mutable region size in whole pages; the remainder of the ring is
	// the read-only (second chance) region.
	mutPages := uint64(float64(cfg.BufferPages) * cfg.MutableFraction)
	// The read-only region is the flush lead. With two pages of it, the
	// page a turn evicts went read-only (and its flush was issued) one
	// turn earlier, so the turn only closes its frame; with one, every
	// turn starts that flush and then waits it out. A 2-page ring can
	// spare only one page, and needs it: with none, nothing flushes and
	// eviction deadlocks.
	if cfg.Mode == ModeHybrid {
		mutPages = min(mutPages, uint64(max(cfg.BufferPages-2, 1)))
	}
	l.roLag = mutPages << cfg.PageBits

	l.tailWord.Store(FirstValidAddress) // page 0, offset 64
	l.begin.Store(FirstValidAddress)
	return l, nil
}

// PageSize returns the page size in bytes.
func (l *Log) PageSize() uint64 { return l.pageSize }

// Mode returns the allocator mode.
func (l *Log) Mode() Mode { return l.cfg.Mode }

// packed tail helpers.
func unpack(w uint64) (page, off uint64) { return w >> 32, w & 0xffffffff }

// TailAddress returns the next address that will be allocated.
func (l *Log) TailAddress() Address {
	page, off := unpack(l.tailWord.Load())
	if off > l.pageSize {
		off = l.pageSize
	}
	// Addition, not OR: a mid-roll clamp makes off == pageSize, whose
	// bit overlaps the page number's lowest bit.
	return page<<l.pageBits + off
}

// HeadAddress returns the lowest logical address resident in memory.
func (l *Log) HeadAddress() Address { return l.head.Load() }

// ReadOnlyAddress returns the mutable-region boundary (§6.1). In
// append-only mode it is the tail itself: no record is ever mutable, so
// every update is a read-copy-update append (§5.3). The internal offset
// that drives flushing still advances at page granularity.
func (l *Log) ReadOnlyAddress() Address {
	if l.cfg.Mode == ModeAppendOnly {
		return l.TailAddress()
	}
	return l.readOnly.Load()
}

// SafeReadOnlyAddress returns the boundary seen by all threads (§6.2).
// In append-only mode records are immutable from birth, so there is no
// fuzzy region and the safe boundary equals the tail.
func (l *Log) SafeReadOnlyAddress() Address {
	if l.cfg.Mode == ModeAppendOnly {
		return l.TailAddress()
	}
	return l.safeRO.Load()
}

// BeginAddress returns the truncation point of the log.
func (l *Log) BeginAddress() Address { return l.begin.Load() }

// FlushedUntilAddress returns the address below which every byte has been
// written to the device. Sync makes those writes durable.
func (l *Log) FlushedUntilAddress() Address { return l.flushed.level() }

// FlushIssuedAddress returns the address below which flush I/O has been
// issued (diagnostics).
func (l *Log) FlushIssuedAddress() Address { return l.flushIssue.Load() }

// WriteFailure returns the error that poisoned the log tail (wrapping
// ErrPoisoned and the device cause), or nil while the log is healthy.
func (l *Log) WriteFailure() error {
	if f := l.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// Poisoned reports whether the log tail is poisoned (see ErrPoisoned).
func (l *Log) Poisoned() bool { return l.failure.Load() != nil }

// poison records the first unrecoverable flush error and notifies the
// owner exactly once. Later flush give-ups are counted but keep the first
// cause.
func (l *Log) poison(err error) {
	l.mx.flushFailures.Inc()
	wrapped := fmt.Errorf("%w: %w", ErrPoisoned, err)
	if !l.failure.CompareAndSwap(nil, &logFailure{err: wrapped}) {
		return
	}
	if l.cfg.OnWriteFailure != nil {
		l.cfg.OnWriteFailure(wrapped)
	}
}

// pageOf returns the page number containing addr.
func (l *Log) pageOf(addr Address) uint64 { return addr >> l.pageBits }

// Slice returns the in-memory bytes at addr, up to the end of its page:
// its capacity ends there too, so no append or reslice reaches the next
// frame. The caller must have established addr >= HeadAddress under epoch
// protection; this is the latch-free fast path, so no check is performed.
func (l *Log) Slice(addr Address) []byte {
	off := addr & l.ringMask
	end := (off | (l.pageSize - 1)) + 1
	return l.ring[off:end:end]
}

// Uint64Ptr returns a pointer to the 8-byte-aligned word at addr, suitable
// for sync/atomic operations. addr must be 8-byte aligned and in memory.
func (l *Log) Uint64Ptr(addr Address) *uint64 {
	return &l.words[(addr&l.ringMask)>>3]
}

// Allocate reserves size bytes at the tail and returns the logical address.
// size must be a positive multiple of 8 and no larger than a page. The
// guard g is the caller's epoch guard; Allocate may Refresh it while
// waiting for buffer maintenance (so callers must treat Allocate as an
// epoch boundary, as FASTER threads do). This is Algorithm 1 of the paper.
func (l *Log) Allocate(size uint32, g *epoch.Guard) (Address, error) {
	if size == 0 || size%8 != 0 {
		return InvalidAddress, fmt.Errorf("hlog: invalid allocation size %d", size)
	}
	if uint64(size) > l.pageSize-FirstValidAddress {
		return InvalidAddress, ErrRecordTooLarge
	}
	for {
		if l.closed.Load() {
			return InvalidAddress, ErrClosed
		}
		if err := l.WriteFailure(); err != nil {
			// Poisoned tail: new records could never become durable, and
			// eviction could never reclaim their frames. Fail fast so the
			// store can degrade to read-only instead of hanging here.
			return InvalidAddress, err
		}
		w := l.tailWord.Add(uint64(size))
		page, off := unpack(w)
		start := off - uint64(size)
		if off <= l.pageSize {
			// Common case: the allocation fits on the current page
			// (including an exact fit at the page end).
			return page<<l.pageBits | start, nil
		}
		if start <= l.pageSize {
			// This thread crossed the boundary: it performs buffer
			// maintenance and opens the next page (Alg 1 lines 5-16).
			//
			// Deviation from Alg 1's exact-fit special case: a crosser
			// here never retains an address on the old page (an exact
			// fit returned above, and a straddler's space is wasted),
			// so openPage is free to refresh the caller's epoch while
			// it waits — a thread holding an old-page address across a
			// refresh could otherwise race with the page's flush.
			if err := l.openPage(page+1, g); err != nil {
				// The frame never became evictable (log closed or
				// poisoned mid-wait). The tail word stays wedged past
				// the page end on purpose: concurrent allocators spin
				// on it, observe the closed/poisoned state below, and
				// fail fast too. Reusing the frame here would overwrite
				// an unflushed page that resident readers still need.
				return InvalidAddress, err
			}
			// Any straddling space [start, pageSize) on the old page
			// stays zero, which record scans recognise as padding.
			// Allocate this request at the new page start.
			if debugTrap() {
				if cur := l.tailWord.Load(); (page+1)<<32|uint64(size) < cur {
					panic(fmt.Sprintf("tail store backward: cur=(%d,%#x) new=(%d,%#x)",
						cur>>32, cur&0xffffffff, page+1, size))
				}
			}
			l.tailWord.Store((page+1)<<32 | uint64(size))
			return (page + 1) << l.pageBits, nil
		}
		// Another thread is opening the new page: spin until the tail
		// word becomes valid again, then retry (Alg 1 lines 17-19).
		//
		// The wait must refresh eagerly and back off to sleeps, not busy
		// Gosched: the opener is blocked behind two epoch round-trips
		// (flush the read-only span, then close the evicted frames), and
		// each round-trip completes only after every waiter here has
		// published a fresh epoch. Waiters that spin hot with rare
		// refreshes starve the opener of CPU and stretch every
		// page turn into a scheduler convoy — with enough writers the
		// whole store collapses to a few page turns per second.
		waitStart := time.Now()
		if err := l.em.Wait(g, func() bool {
			_, off := unpack(l.tailWord.Load())
			return off <= l.pageSize
		}, l.waitStop); err != nil {
			return InvalidAddress, err
		}
		l.mx.tailContention.Observe(time.Since(waitStart))
	}
}

// openPage prepares the frame for newPage: advances the read-only and head
// offsets if they lag (Alg 1 buffer_maintenance), waits until the target
// frame is evictable, and claims it.
func (l *Log) openPage(newPage uint64, g *epoch.Guard) error {
	// Advance the read-only offset to maintain its lag from the tail.
	l.maybeShiftReadOnly(newPage)

	// The frame for newPage can be claimed once its previous occupant
	// (page newPage-bufferPages) has been closed. For the first pass
	// around the ring the frame has never been used and is fresh.
	status := &l.frames[newPage&l.frameMask]
	var desiredHead uint64
	if newPage+1 >= uint64(len(l.frames)) {
		desiredHead = (newPage + 1 - uint64(len(l.frames))) << l.pageBits
	}
	if status.Load() == frameOpen {
		waitStart := time.Now()
		// A write failure ends the wait: the occupant page can never flush,
		// so this frame can never be evicted. The frame stays untouched
		// (resident readers still need it).
		if err := l.em.Wait(g, func() bool {
			if status.Load() != frameOpen {
				return true
			}
			l.maybeShiftHead(desiredHead, g)
			return false
		}, l.waitStop); err != nil {
			return err
		}
		l.mx.frameWait.Observe(time.Since(waitStart))
	}
	l.openFrame(newPage)
	return nil
}

// maybeShiftReadOnly raises the read-only offset so it trails the new tail
// page by roLag bytes, and registers the epoch trigger that publishes the
// safe read-only offset and flushes the newly read-only pages (§6.2).
func (l *Log) maybeShiftReadOnly(tailPage uint64) {
	tailStart := tailPage << l.pageBits
	if tailStart <= l.roLag {
		return
	}
	desired := tailStart - l.roLag
	for {
		cur := l.readOnly.Load()
		if desired <= cur {
			return
		}
		if l.readOnly.CompareAndSwap(cur, desired) {
			l.mx.roShifts.Inc()
			if mutationsEnabled && mutSkipEpochBump() {
				l.onSafeReadOnly(desired) // seeded bug: no epoch wait
			} else {
				l.em.BumpWith(func() { l.onSafeReadOnly(desired) })
			}
			return
		}
	}
}

// ShiftReadOnlyToTail moves the read-only offset all the way to the
// current tail (used by checkpointing, §6.5) and returns the tail address.
func (l *Log) ShiftReadOnlyToTail() Address {
	tail := l.TailAddress()
	for {
		cur := l.readOnly.Load()
		if tail <= cur {
			return tail
		}
		if l.readOnly.CompareAndSwap(cur, tail) {
			l.mx.roShifts.Inc()
			if mutationsEnabled && mutSkipEpochBump() {
				l.onSafeReadOnly(tail) // seeded bug: no epoch wait
			} else {
				l.em.BumpWith(func() { l.onSafeReadOnly(tail) })
			}
			return tail
		}
	}
}

// onSafeReadOnly runs as an epoch trigger action once every thread has seen
// a read-only offset of at least ro. It raises the safe read-only offset
// and issues flushes for the span that just became immutable.
func (l *Log) onSafeReadOnly(ro uint64) {
	if debugTrap() && ro > l.readOnly.Load() {
		panic(fmt.Sprintf("hlog: onSafeReadOnly(%#x) beyond readOnly=%#x", ro, l.readOnly.Load()))
	}
	for {
		cur := l.safeRO.Load()
		if ro <= cur {
			break
		}
		if l.safeRO.CompareAndSwap(cur, ro) {
			break
		}
	}
	// Claim the flush span [issued, ro) exactly once.
	for {
		issued := l.flushIssue.Load()
		if ro <= issued {
			return
		}
		if l.flushIssue.CompareAndSwap(issued, ro) {
			l.issueFlush(issued, ro)
			return
		}
	}
}

// issueFlush writes [from, to) to the device, splitting at page boundaries.
//
// A failed flush would lose data; the paper assumes reliable storage.
// Completion is recorded only on success — eviction can never pass an
// unflushed page — and each page write retries like every device I/O of
// the log (attempt), so one flaky write does not wedge the durability
// watermark. A write that fails for good poisons the log tail, so the
// store can degrade to read-only instead of retrying a dead device every
// millisecond forever.
func (l *Log) issueFlush(from, to uint64) {
	if l.closed.Load() || l.Poisoned() {
		return
	}
	for from < to {
		start, end := from, min((l.pageOf(from)+1)<<l.pageBits, to)
		issued := time.Now()
		l.mx.flushesIssued.Inc()
		l.attempt(deviceIO{write: true, addr: start, buf: l.Slice(start)[:end-start], done: func(err error) {
			switch {
			case err == nil:
				l.mx.flushLatency.Observe(time.Since(issued))
				l.mx.flushedBytes.Add(end - start)
				l.flushed.complete(start, end)
			case !errors.Is(err, ErrClosed):
				l.poison(fmt.Errorf("flush of [%#x,%#x): %w", start, end, err))
			}
		}}, 0)
		from = end
	}
}

// deviceIO is one read or write the log hands the device, retried as a
// unit; done receives its outcome exactly once.
type deviceIO struct {
	write      bool
	addr       Address
	buf        []byte
	deadlineNs int64 // reads: when nonzero, the retries end by then
	done       device.Callback
}

// attempt hands io to the device; failures counts its attempts that
// failed before this one. It is the one retry path for the log's device
// I/O — page flushes, record and scan reads, RecoverTo's pad: each
// failure is classified by device.Classify and either retried after a
// backoff (retryOrEnd) or handed to io.done. The success path costs one
// closure. A write counts as in flight from here until its callback
// returns, so Close waits for it: the device may read its buffer, a ring
// frame, until then.
func (l *Log) attempt(io deviceIO, failures int) {
	if io.write && !l.beginIO() {
		io.done(ErrClosed)
		return
	}
	cb := func(err error) {
		if err == nil {
			io.done(nil)
		} else {
			l.retryOrEnd(io, failures+1, err)
		}
		if io.write {
			l.endIO()
		}
	}
	if io.write {
		l.dev.WriteAsync(io.buf, io.addr, cb)
	} else {
		l.dev.ReadAsync(io.buf, io.addr, cb)
	}
}

// retryOrEnd decides io after its failures-th failed attempt, err: it is
// re-issued after the policy's backoff while the budget allows, and ends
// otherwise — with the error wrapped as a retry.ExhaustedError, or with
// ErrClosed once the log is closed.
func (l *Log) retryOrEnd(io deviceIO, failures int, err error) {
	policy, retries := l.cfg.ReadRetry, &l.mx.readRetries
	if io.write {
		policy, retries = l.cfg.WriteRetry, &l.mx.flushRetries
	}
	class := device.Classify(err)
	switch {
	case l.closed.Load():
		io.done(ErrClosed)
	case !io.write && io.addr < l.begin.Load():
		// The read raced a truncation: what it read is provably dead (it
		// sat below a begin address some caller advanced past). The raw
		// error goes back at once, burning no budget and raising no
		// OnRetry.
		io.done(err)
	case io.write && l.Poisoned(), !policy.Budget(class, failures):
		io.done(retry.Exhausted(class, err, failures))
	default:
		delay := policy.Delay(failures)
		if io.deadlineNs > 0 && time.Now().Add(delay).UnixNano() >= io.deadlineNs {
			// The backoff would sleep past the deadline: end the read now,
			// without OnRetry — a deadline is caller impatience, not a
			// new health signal.
			io.done(ErrDeadline)
			return
		}
		retries.Inc()
		if l.cfg.OnRetry != nil {
			l.cfg.OnRetry(err)
		}
		l.retryAfter(delay, io, failures)
	}
}

// retryAfter re-issues io after delay. Every backoff timer of the log is
// in one registry, so Close can stop it: an I/O whose timer Close stops,
// or whose timer fires after Close, calls back once, with ErrClosed.
func (l *Log) retryAfter(delay time.Duration, io deviceIO, failures int) {
	l.retryMu.Lock()
	if l.closed.Load() {
		l.retryMu.Unlock()
		io.done(ErrClosed)
		return
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		l.retryMu.Lock()
		delete(l.retryTimers, t)
		l.retryMu.Unlock()
		if l.closed.Load() {
			io.done(ErrClosed)
			return
		}
		l.attempt(io, failures)
	})
	l.retryTimers[t] = io.done
	l.retryMu.Unlock()
}

// beginIO counts a write about to be handed to the device, or reports
// false once the log is closed: Close may already be unmapping the frame
// the write would read.
func (l *Log) beginIO() bool {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.closed.Load() {
		return false
	}
	l.ioInflight++
	return true
}

// endIO uncounts a write whose device callback has run.
func (l *Log) endIO() {
	l.ioMu.Lock()
	if l.ioInflight--; l.ioInflight == 0 {
		l.ioDrained.Broadcast()
	}
	l.ioMu.Unlock()
}

// retryTimerCount reports outstanding backoff timers (tests).
func (l *Log) retryTimerCount() int {
	l.retryMu.Lock()
	defer l.retryMu.Unlock()
	return len(l.retryTimers)
}

// maybeShiftHead raises the head offset toward desired, limited by the
// flush watermark (pages must be on the device before eviction), runs OnEvict
// over the passed range, and registers the epoch trigger that closes the
// evicted frames (§5.2). g is the page opener's guard.
func (l *Log) maybeShiftHead(desired uint64, g *epoch.Guard) {
	if desired == 0 {
		return
	}
	if fu := l.flushed.level(); desired > fu {
		desired = fu &^ (l.pageSize - 1) // only whole flushed pages evict
	}
	for {
		cur := l.head.Load()
		if desired <= cur {
			return
		}
		if l.head.CompareAndSwap(cur, desired) {
			l.mx.headShifts.Inc()
			oldHead, newHead := cur, desired
			if l.cfg.OnEvict != nil {
				if l.waitDrain(g, l.waitStop) != nil {
					return
				}
				l.cfg.OnEvict(oldHead, newHead)
			}
			l.em.BumpWith(func() { l.closeFrames(oldHead, newHead) })
			return
		}
	}
}

// waitDrain bumps the epoch and waits until every thread has refreshed
// past the bump, refreshing g meanwhile, or until stop reports an error.
func (l *Log) waitDrain(g *epoch.Guard, stop func() error) error {
	var drained atomic.Bool
	l.em.BumpWith(func() { drained.Store(true) })
	return l.em.Wait(g, drained.Load, stop)
}

// closeFrames marks the frames holding pages [oldHead, newHead) as closed,
// making them reusable. Runs as an epoch trigger: by then no thread can be
// accessing those addresses.
func (l *Log) closeFrames(oldHead, newHead uint64) {
	for p := oldHead >> l.pageBits; p < newHead>>l.pageBits; p++ {
		l.frames[p&l.frameMask].Store(frameClosed)
		l.mx.evictedPages.Inc()
	}
}

// ReadAsync reads len(buf) bytes at addr from the device (the stable
// region) and calls cb once with the outcome, retrying failures under the
// read policy (attempt). deadlineNs, when nonzero, bounds the read: one
// issued past it, or whose next backoff would sleep past it, ends with
// ErrDeadline. A read of an address below BeginAddress ends with the
// device's raw error. The caller is responsible for ensuring
// addr+len(buf) is below the flush watermark or handling the resulting
// error.
func (l *Log) ReadAsync(addr Address, buf []byte, deadlineNs int64, cb device.Callback) {
	if deadlineNs > 0 && time.Now().UnixNano() >= deadlineNs {
		cb(ErrDeadline)
		return
	}
	l.attempt(deviceIO{addr: addr, buf: buf, deadlineNs: deadlineNs, done: cb}, 0)
}

// WaitUntilFlushed blocks until the flush watermark reaches addr. It
// drains epoch actions while waiting so that single-threaded callers make
// progress.
//
// g, if non-nil, is the caller's epoch guard and is refreshed every
// iteration, as in ShiftBeginAddress: a page can turn read-only after the
// caller's last refresh, and the epoch action that flushes it needs that
// guard to move on. A caller holding a guard it does not pass here must
// Park it first or the wait can deadlock.
func (l *Log) WaitUntilFlushed(addr Address, g *epoch.Guard) error {
	if l.flushed.level() >= addr {
		return nil
	}
	waitStart := time.Now()
	defer func() { l.mx.flushWait.Observe(time.Since(waitStart)) }()
	// A write failure ends the wait: the flush path gave up, so the
	// watermark can never reach addr.
	return l.em.Wait(g, func() bool { return l.flushed.level() >= addr }, l.waitStop)
}

// Sync returns once every flush the device has completed is durable. A
// flush completion, which FlushedUntilAddress reports, means only that the
// device took the write: on a file device, the page cache.
func (l *Log) Sync() error { return l.dev.Sync() }

// waitStop ends an epoch wait once the log is closed or its tail poisoned:
// whatever the wait expected can then never happen.
func (l *Log) waitStop() error {
	if l.closed.Load() {
		return ErrClosed
	}
	return l.WriteFailure()
}

// ShiftBeginAddress advances the begin address to addr (monotone,
// expiration-based GC, Appendix C) and, when it advanced, waits under an
// epoch bump + drain until every thread has observed the new begin. Only
// after that wait is it safe to free the device range below addr: threads
// check begin before issuing stable-region reads, so post-drain no new
// read below addr can start. (Reads already in flight when begin moved
// may still race a device truncate; the faster layer resolves those as
// NotFound — the record is provably dead.)
//
// g, if non-nil, is the caller's epoch guard and is refreshed while
// waiting so the caller does not stall its own drain; a caller holding an
// active guard that it cannot refresh here must Park it first or the
// wait deadlocks. Returns whether this call advanced begin.
func (l *Log) ShiftBeginAddress(addr Address, g *epoch.Guard) (bool, error) {
	advanced := false
	for {
		cur := l.begin.Load()
		if addr <= cur {
			break
		}
		if l.begin.CompareAndSwap(cur, addr) {
			advanced = true
			l.mx.beginShifts.Inc()
			break
		}
	}
	if !advanced {
		// A racing caller that advanced past addr performs its own drain;
		// ApplyDeviceTruncation clamps to the epoch-safe watermark, so
		// skipping the wait here cannot free the range early.
		return false, nil
	}
	if err := l.waitDrain(g, func() error {
		if l.closed.Load() {
			return ErrClosed
		}
		return nil
	}); err != nil {
		return true, err
	}
	for {
		cur := l.truncSafe.Load()
		if addr <= cur || l.truncSafe.CompareAndSwap(cur, addr) {
			return true, nil
		}
	}
}

// ApplyDeviceTruncation frees device storage below min(limit, the
// epoch-safe begin published by ShiftBeginAddress), rounded down to a page
// boundary: the page holding a mid-page begin stays whole on the device,
// because scans (compaction, recovery) read pages from their first byte.
// Truncates are serialized under a mutex against a monotone watermark, so
// concurrent callers can never apply device truncates out of order.
// Callers use limit to hold back reclamation the durable metadata does
// not yet cover (recovery must never need truncated addresses).
func (l *Log) ApplyDeviceTruncation(limit Address) error {
	target := l.truncSafe.Load()
	if limit < target {
		target = limit
	}
	target &^= l.PageSize() - 1
	l.truncMu.Lock()
	defer l.truncMu.Unlock()
	if target <= l.truncDone.Load() {
		return nil
	}
	if err := l.dev.Truncate(target); err != nil {
		return err
	}
	l.mx.truncations.Inc()
	l.mx.truncatedBytes.Add(target - l.truncDone.Load())
	l.truncDone.Store(target)
	return nil
}

// TruncatedUntil returns the device truncation watermark: storage below
// this address has been freed.
func (l *Log) TruncatedUntil() Address { return l.truncDone.Load() }

// InMemory reports whether addr is at or above the head offset (resident).
func (l *Log) InMemory(addr Address) bool { return addr >= l.head.Load() }

// RecoverTo positions a freshly created log so that all addresses in
// [begin, tail) live on the device and allocation resumes at the first
// page boundary at or above tail (recovery, §6.5). The remainder of a
// mid-page tail's page is sacrificed: recovering mid-page would mix pre-
// and post-crash records in one flush unit. The device may end at tail,
// so RecoverTo writes zeros over that remainder: every page below the
// resume point then reads whole, in this incarnation and every later
// one, and a read may run to its page end. Must be called before any
// allocation.
func (l *Log) RecoverTo(begin, tail Address) error {
	if l.TailAddress() != FirstValidAddress {
		return errors.New("hlog: RecoverTo on a used log")
	}
	page := l.pageOf(tail)
	if off := tail & (l.pageSize - 1); off != 0 {
		done := make(chan error, 1)
		l.attempt(deviceIO{write: true, addr: tail, buf: make([]byte, l.pageSize-off),
			done: func(err error) { done <- err }}, 0)
		if err := <-done; err != nil {
			return fmt.Errorf("hlog: zero the recovered tail page past %#x: %w", tail, err)
		}
		page++ // resume on a fresh page
	}
	resume := page << l.pageBits
	l.tailWord.Store(page << 32) // offset 0 on the resume page
	l.head.Store(resume)
	l.readOnly.Store(resume)
	l.safeRO.Store(resume)
	l.flushIssue.Store(resume)
	l.flushed.complete(0, resume)
	l.begin.Store(begin)
	// A fresh log has no readers: the recovered begin is epoch-safe by
	// construction, and the device holds nothing below it.
	l.truncSafe.Store(begin)
	l.truncDone.Store(begin)
	// Nothing was written, so every frame is still zero, the initially
	// open frame 0 included.
	for i := range l.frames {
		l.frames[i].Store(frameFresh)
	}
	l.openFrame(page)
	return nil
}

// FrameBytes reports the arena bytes the log's ring occupies. Resident
// memory can be lower: a frame costs it only once written.
func (l *Log) FrameBytes() uint64 { return uint64(len(l.ring)) }

// Close flushes nothing and releases the log. Subsequent allocations
// fail, and outstanding backoff timers are stopped so nothing fires into
// the closed log; each I/O they held calls back with ErrClosed. Close
// then waits until the device has called back every write the log handed
// it — the device may read a write's frame until then — and frees the
// frames. Nothing may touch a record
// concurrently with Close or after it; the store guarantees that by
// closing its log only once no session is left.
func (l *Log) Close() error {
	l.ioMu.Lock()
	if l.closed.Load() {
		l.ioMu.Unlock()
		return nil
	}
	l.closed.Store(true)
	l.ioMu.Unlock()

	var stopped []device.Callback
	l.retryMu.Lock()
	for t, done := range l.retryTimers {
		if t.Stop() {
			stopped = append(stopped, done)
		}
	}
	clear(l.retryTimers)
	l.retryMu.Unlock()
	for _, done := range stopped {
		done(ErrClosed)
	}

	l.ioMu.Lock()
	for l.ioInflight > 0 {
		l.ioDrained.Wait()
	}
	l.ioMu.Unlock()
	err := l.dev.Sync()
	arena.Free(l.ring)
	return err
}
