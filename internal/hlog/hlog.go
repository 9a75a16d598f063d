// Package hlog implements the HybridLog record allocator from Sections 5
// and 6 of the FASTER paper (SIGMOD 2018), together with its two
// degenerate configurations: the pure in-memory allocator of Section 4 and
// the append-only log allocator of Section 5.
//
// The log defines a 48-bit global logical address space spanning main
// memory and secondary storage. The in-memory tail portion lives in a
// bounded circular buffer of page frames. Four monotone address markers
// partition the space (Fig 5 and Fig 7 of the paper):
//
//	begin ≤ head ≤ safeReadOnly ≤ readOnly ≤ tail
//
//	[begin, head)         stable region, on the device only
//	[head, safeReadOnly)  read-only region, in memory, immutable
//	[safeReadOnly, readOnly) fuzzy region (§6.2–6.3)
//	[readOnly, tail)      mutable region, updated in place
//
// Page frames live outside the Go heap (internal/arena) and are addressed
// as []uint64 so that every 8-byte word can be manipulated with
// sync/atomic; records never span pages and are 8-byte aligned. Flushing
// and eviction are coordinated latch-free with epoch trigger actions,
// exactly as in Algorithm 1 of the paper.
package hlog

import (
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

// Mode selects which of the paper's three allocators this log behaves as.
type Mode int

const (
	// ModeHybrid is the HybridLog of Section 6: an in-place-updatable
	// mutable region, a read-only region, and a stable region on storage.
	ModeHybrid Mode = iota
	// ModeAppendOnly is the log-structured allocator of Section 5: the
	// read-only offset tracks the tail, so every update is a read-copy-
	// update append.
	ModeAppendOnly
	// ModeInMemory is the allocator of Section 4: frames grow without
	// bound, nothing is ever flushed or evicted, and the entire log is
	// mutable.
	ModeInMemory
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeAppendOnly:
		return "append-only"
	case ModeInMemory:
		return "in-memory"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Log.
type Config struct {
	// PageBits is F: pages are 1<<F bytes. Must be in [9, 30].
	PageBits uint
	// BufferPages is the number of in-memory page frames (power of two).
	// Ignored by ModeInMemory.
	BufferPages int
	// MutableFraction is the fraction of the in-memory buffer kept as the
	// in-place-updatable (mutable) region; the paper recommends 0.9
	// (§6.4). Forced to 0 for ModeAppendOnly and 1 for ModeInMemory.
	MutableFraction float64
	// Mode selects the allocator behaviour.
	Mode Mode
	// Device receives flushed pages and serves record reads. ModeInMemory
	// may leave it nil (a Null device is substituted).
	Device device.Device
	// Epoch is the shared epoch manager. Required.
	Epoch *epoch.Manager
	// MaxInMemoryPages bounds the growable frame table for ModeInMemory
	// (default 1<<20 pages).
	MaxInMemoryPages int

	// Retry bounds the flush-write retry loop. The zero value selects
	// retry.DefaultWrite(). Transient flush failures are retried with
	// backoff up to the attempt budget; a Permanent classification or an
	// exhausted budget poisons the log tail (see ErrPoisoned).
	Retry retry.Policy
	// Classify maps device errors to retry classes; defaults to the
	// device's own taxonomy (device.ClassifierFor).
	Classify retry.Classifier
	// OnFlushRetry, if set, is observed on every retried flush write
	// (attempt is the number of failures so far). Called from I/O
	// callback goroutines; must not block.
	OnFlushRetry func(attempt int, err error)
	// OnWriteFailure, if set, is called exactly once when the flush path
	// gives up and poisons the log tail. Called from an I/O callback
	// goroutine; must not block.
	OnWriteFailure func(err error)
}

// frame flush status values.
const (
	frameClosed uint32 = iota // frame free for (re)use
	frameOpen                 // frame holds a live page
)

// frame is one slot of the circular buffer.
type frame struct {
	bytes []byte   // page content, arena memory; fixed after init
	words []uint64 // word view of bytes

	status atomic.Uint32 // frameClosed / frameOpen
	// used is set by the first open. Only the thread that claims the
	// frame touches it, after the status load that hands the frame over.
	used bool
}

func newFrame(mem []byte) *frame {
	return &frame{bytes: mem, words: arena.View[uint64](mem)}
}

// open readies the frame for a new page: zeroed, as record scans expect
// past the last record. Arena memory starts zeroed, so only a frame that
// held an earlier page is cleared; clearing a fresh one would only fault
// its memory in ahead of the records.
func (f *frame) open() {
	if f.used {
		clear(f.words)
	}
	f.used = true
	f.status.Store(frameOpen)
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
	headLag   uint64 // bytes of buffer capacity

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

	frames    []*frame                // circular buffer (hybrid/append-only)
	ring      []byte                  // the circular buffer's one arena block
	memFrames []atomic.Pointer[frame] // growable table (in-memory mode), one block per page
	memPages  atomic.Uint64           // pages opened in memFrames

	classify retry.Classifier

	// failure is set once when the flush path exhausts its retry budget
	// (or hits a Permanent error): the log tail is poisoned. Allocation
	// and flush waits fail fast instead of hanging; already-flushed data
	// and the resident region stay readable.
	failure atomic.Pointer[logFailure]

	// Outstanding flush-retry timers, cancelled on Close so a dead device
	// cannot keep firing retries into a closed log.
	retryMu     sync.Mutex
	retryTimers map[*time.Timer]struct{}

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
		flushRetries   metrics.Counter   // failed flush writes re-issued
		flushFailures  metrics.Counter   // flush spans abandoned (poisoned)
		flushedBytes   metrics.Counter   // bytes durably flushed
		flushLatency   metrics.Histogram // write issue -> durable callback
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

	// closed is set under ioMu, which also counts the flush writes handed
	// to the device whose callbacks have not returned (ioInflight). Close
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
	case ModeInMemory:
		cfg.MutableFraction = 1
		if cfg.Device == nil {
			cfg.Device = device.NewNull()
		}
		if cfg.MaxInMemoryPages == 0 {
			cfg.MaxInMemoryPages = 1 << 20
		}
	case ModeHybrid:
		if cfg.MutableFraction < 0 || cfg.MutableFraction > 1 {
			return nil, fmt.Errorf("hlog: MutableFraction %v out of range", cfg.MutableFraction)
		}
		if cfg.Device == nil {
			return nil, errors.New("hlog: Device required for hybrid mode")
		}
	default:
		return nil, fmt.Errorf("hlog: unknown mode %v", cfg.Mode)
	}
	if cfg.Mode != ModeInMemory {
		if cfg.BufferPages < 2 || bits.OnesCount(uint(cfg.BufferPages)) != 1 {
			return nil, fmt.Errorf("hlog: BufferPages %d must be a power of two >= 2", cfg.BufferPages)
		}
	}

	if cfg.Retry == (retry.Policy{}) {
		cfg.Retry = retry.DefaultWrite()
	}
	if cfg.Classify == nil {
		cfg.Classify = device.ClassifierFor(cfg.Device)
	}

	l := &Log{
		cfg:         cfg,
		pageBits:    cfg.PageBits,
		pageSize:    1 << cfg.PageBits,
		em:          cfg.Epoch,
		dev:         cfg.Device,
		classify:    cfg.Classify,
		retryTimers: make(map[*time.Timer]struct{}),
	}
	l.flushed.init()
	l.ioDrained.L = &l.ioMu

	if cfg.Mode == ModeInMemory {
		l.memFrames = make([]atomic.Pointer[frame], cfg.MaxInMemoryPages)
		l.memFrames[0].Store(newFrame(arena.Alloc(int(l.pageSize))))
		l.memPages.Store(1)
	} else {
		l.frameMask = uint64(cfg.BufferPages - 1)
		l.frames = make([]*frame, cfg.BufferPages)
		l.ring = arena.Alloc(cfg.BufferPages << cfg.PageBits)
		for i := range l.frames {
			l.frames[i] = newFrame(l.ring[i<<cfg.PageBits : (i+1)<<cfg.PageBits : (i+1)<<cfg.PageBits])
		}
		l.frames[0].open()
		l.headLag = uint64(cfg.BufferPages) << cfg.PageBits
		// Mutable region size in whole pages; the remainder of the
		// buffer is the read-only (second chance) region.
		mutPages := uint64(float64(cfg.BufferPages) * cfg.MutableFraction)
		// At least one page of the buffer must be able to become
		// read-only, or nothing ever flushes and eviction deadlocks
		// once the buffer wraps.
		if cfg.Mode == ModeHybrid && mutPages >= uint64(cfg.BufferPages) {
			mutPages = uint64(cfg.BufferPages) - 1
		}
		l.roLag = mutPages << cfg.PageBits
	}

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

// FlushedUntilAddress returns the address below which every byte is durable.
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

// frameFor returns the frame that holds page, or nil (in-memory mode, page
// not yet allocated).
func (l *Log) frameFor(page uint64) *frame {
	if l.cfg.Mode == ModeInMemory {
		return l.memFrames[page].Load()
	}
	return l.frames[page&l.frameMask]
}

// Slice returns the in-memory bytes at addr, up to the end of its page.
// The caller must have established addr >= HeadAddress under epoch
// protection; this is the latch-free fast path, so no check is performed.
func (l *Log) Slice(addr Address) []byte {
	f := l.frameFor(l.pageOf(addr))
	return f.bytes[addr&(l.pageSize-1):]
}

// Uint64Ptr returns a pointer to the 8-byte-aligned word at addr, suitable
// for sync/atomic operations. addr must be 8-byte aligned and in memory.
func (l *Log) Uint64Ptr(addr Address) *uint64 {
	f := l.frameFor(l.pageOf(addr))
	return &f.words[(addr&(l.pageSize-1))>>3]
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
	if l.cfg.Mode == ModeInMemory {
		if newPage >= uint64(len(l.memFrames)) {
			panic("hlog: in-memory log exceeded MaxInMemoryPages")
		}
		l.memFrames[newPage].Store(newFrame(arena.Alloc(int(l.pageSize))))
		l.memPages.Add(1)
		return nil
	}

	// Advance the read-only offset to maintain its lag from the tail.
	l.maybeShiftReadOnly(newPage)

	// The frame for newPage can be claimed once its previous occupant
	// (page newPage-bufferPages) has been closed. For the first pass
	// around the buffer the frame has never been used and is Closed.
	f := l.frames[newPage&l.frameMask]
	var desiredHead uint64
	if newPage+1 >= uint64(len(l.frames)) {
		desiredHead = (newPage + 1 - uint64(len(l.frames))) << l.pageBits
	}
	if f.status.Load() != frameClosed {
		waitStart := time.Now()
		// A write failure ends the wait: the occupant page can never flush,
		// so this frame can never be evicted. The frame stays untouched
		// (resident readers still need it).
		if err := l.em.Wait(g, func() bool {
			if f.status.Load() == frameClosed {
				return true
			}
			l.maybeShiftHead(desiredHead)
			return false
		}, l.waitStop); err != nil {
			return err
		}
		l.mx.frameWait.Observe(time.Since(waitStart))
	}
	f.open()
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
	if l.cfg.Mode == ModeInMemory {
		return tail
	}
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
// unflushed page — and failures are handled by classification: transient
// errors retry with bounded exponential backoff and jitter so the
// durability watermark is not wedged by one flaky write, while a
// Permanent classification (or an exhausted attempt budget) poisons the
// log tail so the store can degrade to read-only instead of retrying a
// dead device every millisecond forever.
func (l *Log) issueFlush(from, to uint64) {
	if l.closed.Load() || l.Poisoned() {
		return
	}
	for from < to {
		page := l.pageOf(from)
		pageEnd := (page + 1) << l.pageBits
		end := min(pageEnd, to)
		f := l.frames[page&l.frameMask]
		off := from & (l.pageSize - 1)
		buf := f.bytes[off : end-(page<<l.pageBits)]
		start, stop := from, end
		if !l.beginIO() {
			return
		}
		var done device.Callback
		issued := time.Now()
		failures := 0 // touched by one callback at a time (serial retries)
		write := func() { l.dev.WriteAsync(buf, start, done) }
		attempt := func(err error) {
			if err == nil {
				l.mx.flushLatency.Observe(time.Since(issued))
				l.mx.flushedBytes.Add(stop - start)
				l.flushed.complete(start, stop)
				return
			}
			if l.closed.Load() || l.Poisoned() {
				return
			}
			failures++
			if l.classify.Classify(err) == retry.Permanent || failures >= l.cfg.Retry.Attempts() {
				l.poison(fmt.Errorf("flush of [%#x,%#x): %w",
					start, stop, retry.Exhausted(l.classify, err, failures)))
				return
			}
			l.mx.flushRetries.Inc()
			if l.cfg.OnFlushRetry != nil {
				l.cfg.OnFlushRetry(failures, err)
			}
			l.scheduleRetry(l.cfg.Retry.Delay(failures), write)
		}
		done = func(err error) {
			attempt(err)
			l.endIO()
		}
		l.mx.flushesIssued.Inc()
		write()
		from = end
	}
}

// beginIO counts a flush write about to be handed to the device, or
// reports false once the log is closed: Close may already be unmapping
// the frame the write would read.
func (l *Log) beginIO() bool {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.closed.Load() {
		return false
	}
	l.ioInflight++
	return true
}

// endIO uncounts a flush write whose device callback has run.
func (l *Log) endIO() {
	l.ioMu.Lock()
	if l.ioInflight--; l.ioInflight == 0 {
		l.ioDrained.Broadcast()
	}
	l.ioMu.Unlock()
}

// scheduleRetry re-issues a failed flush write after delay. The timer is
// tracked so Close can cancel it: without the registry a permanently
// failing device would keep firing retries into a closed log (the
// pre-hardening AfterFunc leak).
func (l *Log) scheduleRetry(delay time.Duration, write func()) {
	l.retryMu.Lock()
	defer l.retryMu.Unlock()
	if l.closed.Load() {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		l.retryMu.Lock()
		delete(l.retryTimers, t)
		l.retryMu.Unlock()
		if l.Poisoned() || !l.beginIO() {
			return
		}
		write()
	})
	l.retryTimers[t] = struct{}{}
}

// retryTimerCount reports outstanding flush-retry timers (tests).
func (l *Log) retryTimerCount() int {
	l.retryMu.Lock()
	defer l.retryMu.Unlock()
	return len(l.retryTimers)
}

// maybeShiftHead raises the head offset toward desired, limited by the
// flush watermark (pages must be durable before eviction), and registers
// the epoch trigger that closes the evicted frames (§5.2).
func (l *Log) maybeShiftHead(desired uint64) {
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
			l.em.BumpWith(func() { l.closeFrames(oldHead, newHead) })
			return
		}
	}
}

// closeFrames marks the frames holding pages [oldHead, newHead) as closed,
// making them reusable. Runs as an epoch trigger: by then no thread can be
// accessing those addresses.
func (l *Log) closeFrames(oldHead, newHead uint64) {
	for p := oldHead >> l.pageBits; p < newHead>>l.pageBits; p++ {
		l.frames[p&l.frameMask].status.Store(frameClosed)
		l.mx.evictedPages.Inc()
	}
}

// ReadAsync reads len(buf) bytes at addr from the device (the stable
// region). The caller is responsible for ensuring addr+len(buf) is below
// the flush watermark or handling the resulting error.
func (l *Log) ReadAsync(addr Address, buf []byte, cb device.Callback) {
	l.dev.ReadAsync(buf, addr, cb)
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
	if !advanced || l.cfg.Mode == ModeInMemory {
		// A racing caller that advanced past addr performs its own drain;
		// ApplyDeviceTruncation clamps to the epoch-safe watermark, so
		// skipping the wait here cannot free the range early. In-memory
		// logs have no device range to protect.
		return advanced, nil
	}
	var drained atomic.Bool
	l.em.BumpWith(func() { drained.Store(true) })
	if err := l.em.Wait(g, drained.Load, func() error {
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

// TruncateUntil discards the log prefix below addr (expiration-based GC,
// Appendix C): it advances begin under an epoch bump + drain and then
// frees the device range. Addresses below the new begin address become
// invalid. The calling goroutine must not hold an active (unparked)
// epoch guard or session, or the drain cannot complete.
func (l *Log) TruncateUntil(addr Address) error {
	if _, err := l.ShiftBeginAddress(addr, nil); err != nil {
		return err
	}
	return l.ApplyDeviceTruncation(addr)
}

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
	if l.cfg.Mode == ModeInMemory {
		return errors.New("hlog: cannot recover an in-memory log")
	}
	if l.TailAddress() != FirstValidAddress {
		return errors.New("hlog: RecoverTo on a used log")
	}
	page := l.pageOf(tail)
	if off := tail & (l.pageSize - 1); off != 0 {
		pad := make([]byte, l.pageSize-off)
		if err := l.cfg.Retry.Do(l.classify, func() error {
			done := make(chan error, 1)
			l.dev.WriteAsync(pad, tail, func(err error) { done <- err })
			return <-done
		}); err != nil {
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
	for _, f := range l.frames {
		f.status.Store(frameClosed) // including the initially open frame 0
	}
	l.frames[page&l.frameMask].open()
	return nil
}

// Capacity returns the in-memory capacity in bytes (0 for ModeInMemory,
// which is unbounded).
func (l *Log) Capacity() uint64 {
	if l.cfg.Mode == ModeInMemory {
		return 0
	}
	return uint64(len(l.frames)) << l.pageBits
}

// FrameBytes reports the arena bytes the log's page frames occupy: the
// whole circular buffer, or every page opened so far in in-memory mode.
// Resident memory can be lower: a frame costs it only once written.
func (l *Log) FrameBytes() uint64 {
	if l.cfg.Mode == ModeInMemory {
		return l.memPages.Load() << l.pageBits
	}
	return uint64(len(l.ring))
}

// Close flushes nothing and releases the log. Subsequent allocations
// fail, and outstanding flush-retry timers are cancelled so nothing fires
// into the closed log. Close then waits until the device has called back
// every flush write the log handed it — the device may read a write's
// frame until then — and frees the frames. Nothing may touch a record
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

	l.retryMu.Lock()
	for t := range l.retryTimers {
		t.Stop()
	}
	clear(l.retryTimers)
	l.retryMu.Unlock()

	l.ioMu.Lock()
	for l.ioInflight > 0 {
		l.ioDrained.Wait()
	}
	l.ioMu.Unlock()
	err := l.dev.Sync()

	if l.cfg.Mode == ModeInMemory {
		for i := range l.memPages.Load() {
			if f := l.memFrames[i].Load(); f != nil {
				arena.Free(f.bytes)
			}
		}
	} else {
		arena.Free(l.ring)
	}
	return err
}
