package faster

import (
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/metrics"
)

// Read cache (F2 / Deuteronomy 2.0 style): a second, small in-memory
// circular log sitting between the hash index and the main HybridLog.
// When a cold read completes from storage, the record is copied into the
// cache and the index entry is CASed from the hlog chain head to the
// cached copy, so repeated reads of the same cold record stop paying a
// device round-trip. The cache is purely an index-level redirection:
//
//   - Cache addresses are tagged with bit 47 (cacheAddrBit). The hlog
//     never reaches 2^47 bytes, so tagged addresses are disjoint from log
//     addresses while still fitting the index's 48-bit address field.
//   - A cached record's prev field holds the hlog address the entry
//     carried before the fill (the chain head). Invalidation is therefore
//     the ordinary RCU discipline: an upsert/RMW/delete appends at the
//     tail and CASes the entry from the tagged address to the new record,
//     which simply drops the cached copy out of the chain. Readers that
//     miss the cached key (hash collisions) continue at prev.
//   - Cache addresses live ONLY in index entries. No hlog record ever has
//     a tagged prev (hlog records are persisted; the cache is volatile),
//     and checkpoints/recovery strip tagged addresses (checkpoint.go).
//
// Eviction is page-at-a-time in FIFO order with a second chance: reads
// that hit a cached record set flagCacheRef in its header; eviction
// restores every live entry to its underlying hlog address first, then
// re-admits referenced records at the cache tail (the CLOCK-approximation
// that internal/cachesim measured best for zipfian reads). The page's
// memory is reclaimed epoch-safely: readers dereference cached records
// under epoch protection, so the frame is zeroed and reused only after
// every thread has refreshed past the eviction bump. Fills fail fast when
// the freed frame has not drained yet — the cache is an optimization, and
// a read that cannot fill is just a normal cold read.

// cacheAddrBit tags index-entry addresses that point into the read cache
// instead of the HybridLog. It is inside the index's AddressMask (bit 47
// of 48) and above any reachable hlog address.
const cacheAddrBit = hlog.Address(1) << 47

// isCacheAddr reports whether an index-entry address points into the
// read cache.
func isCacheAddr(a hlog.Address) bool { return a&cacheAddrBit != 0 }

// readCache is the latch-free record read cache. Reads are lock-free
// (atomic head check + record decode under epoch protection); fills and
// evictions serialize on mu, which is fine because a fill already paid a
// device read and eviction is page-granular.
type readCache struct {
	s        *Store
	pageSize uint64
	nFrames  uint64
	mem      []byte     // every frame's memory, one arena block (Store.Close frees it)
	frames   [][]uint64 // frame memory, word-addressed for atomic headers
	bytesv   [][]byte   // byte views aliasing frames
	ready    []atomic.Bool

	// head is the oldest live virtual offset (page-aligned); offsets below
	// it are evicted. Grows monotonically; frame = (off/pageSize)%nFrames.
	head atomic.Uint64

	mu   sync.Mutex
	tail uint64 // next virtual offset to allocate (under mu)

	// Re-admission staging for second-chance eviction (under mu). The
	// evicted frame's bytes become invalid at reuse, so referenced records
	// are copied out before the frame is recycled.
	scratch []byte
	readmit []readmitRec

	mx struct {
		hits          metrics.Counter
		misses        metrics.Counter
		fills         metrics.Counter
		evictions     metrics.Counter
		invalidations metrics.Counter
		bytes         metrics.Gauge // live cached bytes (tail - head)
	}
}

// readmitRec is a second-chance candidate copied off an evicting page.
type readmitRec struct {
	hash       uint64
	prev       hlog.Address // restored underlying address (CAS expectation)
	key, value []byte       // subslices of scratch
}

// newReadCache sizes a cache of roughly capBytes. Pages shrink from 64 KB
// until at least 4 frames fit (FIFO over fewer frames evicts too much of
// the working set at once), with floors of 512-byte pages and 2 frames.
func newReadCache(s *Store, capBytes uint64) *readCache {
	pageBits := uint(16)
	for pageBits > 9 && capBytes>>pageBits < 4 {
		pageBits--
	}
	nFrames := capBytes >> pageBits
	if nFrames < 2 {
		nFrames = 2
	}
	rc := &readCache{
		s:        s,
		pageSize: 1 << pageBits,
		nFrames:  nFrames,
		frames:   make([][]uint64, nFrames),
		bytesv:   make([][]byte, nFrames),
		ready:    make([]atomic.Bool, nFrames),
	}
	rc.mem = arena.Alloc(int(nFrames * rc.pageSize))
	for i := range rc.frames {
		b := rc.mem[uint64(i)*rc.pageSize : uint64(i+1)*rc.pageSize]
		rc.bytesv[i] = b
		rc.frames[i] = arena.View[uint64](b)
		rc.ready[i].Store(true)
	}
	return rc
}

// arenaBytes reports the cache's frame memory (0 without a cache).
func (rc *readCache) arenaBytes() uint64 {
	if rc == nil {
		return 0
	}
	return uint64(len(rc.mem))
}

// free releases the frames. Every epoch action that clears one must have
// run, and no reader may be left.
func (rc *readCache) free() {
	if rc != nil {
		arena.Free(rc.mem)
	}
}

func (rc *readCache) frameFor(off uint64) uint64 { return (off / rc.pageSize) % rc.nFrames }

func (rc *readCache) headerPtr(off uint64) *uint64 {
	return &rc.frames[rc.frameFor(off)][(off%rc.pageSize)/8]
}

// recordAt decodes the cached record behind the tagged address a. ok is
// false when the record was evicted between the index probe and this
// dereference (rare; the caller re-probes). The caller must hold epoch
// protection taken before the probe and must not refresh it before the
// last use of the returned record: frame memory is only reclaimed after
// an epoch bump drains, so an unrefreshed guard pins the bytes.
func (rc *readCache) recordAt(a hlog.Address) (record, bool) {
	off := a &^ cacheAddrBit
	if off < rc.head.Load() {
		return record{}, false
	}
	b := rc.bytesv[rc.frameFor(off)][off%rc.pageSize:]
	rec, ok := parseRecordHeader(b, atomic.LoadUint64(rc.headerPtr(off)))
	if !ok || rec.invalid() {
		return record{}, false
	}
	return rec, true
}

// noteHit counts a successful cached read and marks the record referenced
// (its second chance at the next eviction).
func (rc *readCache) noteHit(a hlog.Address) {
	rc.mx.hits.Inc()
	off := a &^ cacheAddrBit
	if off < rc.head.Load() {
		return
	}
	p := rc.headerPtr(off)
	for {
		old := atomic.LoadUint64(p)
		if old&(flagCacheRef|flagInvalid) != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|flagCacheRef) {
			return
		}
	}
}

// setInvalid marks the cached record at virtual offset off dead (lost
// publish CAS); eviction skips it without an index lookup.
func (rc *readCache) setInvalid(off uint64) {
	p := rc.headerPtr(off)
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old|flagInvalid) {
			return
		}
	}
}

// fill copies a record fetched from storage into the cache and republishes
// the index entry for hash h from expect (the untagged chain head the read
// observed) to the cached copy. Failure at any step just leaves the cache
// cold — the read already completed from the fetched buffer. g is the
// filling session's epoch guard; eviction refreshes it to let the freed
// frame drain.
func (rc *readCache) fill(g *epoch.Guard, h uint64, key, value []byte, expect hlog.Address) {
	size := uint64(recordSize(len(key), len(value)))
	if size > rc.pageSize {
		return
	}
	rc.mu.Lock()
	off, ok := rc.allocLocked(g, size, true)
	if !ok {
		rc.mu.Unlock()
		return
	}
	b := rc.bytesv[rc.frameFor(off)][off%rc.pageSize:]
	rec := writeRecord(b[:size], expect, 0, key, len(value))
	copy(rec.value, value)
	// Publish while still holding mu: eviction also runs under mu, so the
	// fresh record cannot be evicted between the write and the index CAS
	// (publishing a tagged address already below head would wedge the
	// entry on a dead cache offset). The entry must still hold the
	// untagged chain head the read started from; any interleaved write,
	// delete, compaction republish or competing fill moves the entry and
	// the CAS fails — the cached copy becomes garbage and eviction skips
	// it.
	e, cur, found := rc.s.idx.FindEntry(h)
	if !found || cur != expect || !e.CompareAndSwapAddress(expect, cacheAddrBit|off) {
		rc.setInvalid(off)
	} else {
		rc.mx.fills.Inc()
	}
	rc.mx.bytes.Set(int64(rc.tail - rc.head.Load()))
	rc.mu.Unlock()
}

// allocLocked claims size bytes at the tail, evicting the oldest page if
// the cache is full (mayEvict). Records never span pages; crossing into a
// page whose frame has not finished its epoch drain fails the allocation
// (fail fast — the caller's fill is merely skipped).
func (rc *readCache) allocLocked(g *epoch.Guard, size uint64, mayEvict bool) (uint64, bool) {
	for {
		off := rc.tail
		if rem := rc.pageSize - off%rc.pageSize; size > rem {
			// Pad to the page end; the bytes stay zero (keyLen 0 ends the
			// eviction walk, same convention as the hlog).
			rc.tail += rem
			continue
		}
		if off+size > rc.head.Load()+rc.nFrames*rc.pageSize {
			if !mayEvict || !rc.evictLocked(g) {
				return 0, false
			}
			continue
		}
		if off%rc.pageSize == 0 {
			f := rc.frameFor(off)
			if !rc.ready[f].Load() {
				rc.s.em.Drain() // one non-blocking pass
				if !rc.ready[f].Load() {
					return 0, false
				}
			}
		}
		rc.tail = off + size
		return off, true
	}
}

// evictLocked evicts the page at head: restore every live entry from its
// cached address back to the underlying hlog address, advance head, and
// schedule the frame's zero-and-reuse for after the current epoch drains.
// Records whose reference bit was set (and whose restore succeeded) are
// re-admitted at the tail with the bit cleared — the second chance.
func (rc *readCache) evictLocked(g *epoch.Guard) bool {
	h := rc.head.Load()
	if h >= rc.tail {
		return false
	}
	f := rc.frameFor(h)
	end := h + rc.pageSize
	rc.readmit = rc.readmit[:0]
	rc.scratch = rc.scratch[:0]
	// Re-admission budget: at most half a page, so one eviction always
	// frees net space and re-admission can never cascade into another
	// eviction.
	budget := int(rc.pageSize / 2)
	for off := h; off < end && off < rc.tail; {
		hdr := atomic.LoadUint64(rc.headerPtr(off))
		rec, ok := parseRecordHeader(rc.bytesv[f][off%rc.pageSize:], hdr)
		if !ok {
			break // zero keyLen: page padding, rest of the page is empty
		}
		if !rec.invalid() {
			c := cacheAddrBit | off
			hk := hashKey(rec.key)
			if e, cur, found := rc.s.idx.FindEntry(hk); found && cur == c &&
				e.CompareAndSwapAddress(c, rec.prev()) {
				rc.mx.evictions.Inc()
				if hdr&flagCacheRef != 0 && len(rc.scratch)+len(rec.key)+len(rec.value) <= budget {
					n := len(rc.scratch)
					rc.scratch = append(rc.scratch, rec.key...)
					rc.scratch = append(rc.scratch, rec.value...)
					rc.readmit = append(rc.readmit, readmitRec{
						hash: hk,
						prev: rec.prev(),
						key:  rc.scratch[n : n+len(rec.key)],
						value: rc.scratch[n+len(rec.key) : n+
							len(rec.key)+len(rec.value)],
					})
				}
			}
			// A failed CAS means a writer already redirected the entry (the
			// cached copy was invalidated by RCU) — nothing to restore.
		}
		off += uint64(rec.size)
	}
	ready := &rc.ready[f]
	ready.Store(false)
	rc.head.Store(end)
	frame := rc.frames[f]
	rc.s.em.BumpWith(func() {
		clear(frame)
		ready.Store(true)
	})
	// Our own guard predates the bump and would block the drain forever;
	// refresh it, then run one drain pass so the single-session case
	// reclaims immediately.
	g.Refresh()
	rc.s.em.Drain()

	// Second chances: re-insert referenced records at the tail. Purely
	// best-effort — a full tail or a moved entry just drops the record.
	for i := range rc.readmit {
		r := &rc.readmit[i]
		size := uint64(recordSize(len(r.key), len(r.value)))
		off, ok := rc.allocLocked(g, size, false)
		if !ok {
			break
		}
		b := rc.bytesv[rc.frameFor(off)][off%rc.pageSize:]
		rec := writeRecord(b[:size], r.prev, 0, r.key, len(r.value))
		copy(rec.value, r.value)
		e, cur, found := rc.s.idx.FindEntry(r.hash)
		if !found || cur != r.prev || !e.CompareAndSwapAddress(r.prev, cacheAddrBit|off) {
			rc.setInvalid(off)
		} else {
			rc.mx.fills.Inc()
		}
	}
	return true
}

// redirectPrev CASes the cached record's underlying chain pointer from
// oldPrev to newPrev, preserving the flag bits. Only the
// skip-cache-invalidate mutation seed uses this (mutate_on.go): it links
// a freshly appended hlog record BEHIND the cached copy instead of
// republishing the index entry, so readers keep being served the stale
// cached value — the exact bug class the linearize checker must catch.
func (rc *readCache) redirectPrev(a hlog.Address, oldPrev, newPrev hlog.Address) bool {
	off := a &^ cacheAddrBit
	if off < rc.head.Load() {
		return false
	}
	p := rc.headerPtr(off)
	old := atomic.LoadUint64(p)
	if old&prevMask != uint64(oldPrev) || old&flagInvalid != 0 {
		return false
	}
	return atomic.CompareAndSwapUint64(p, old, old&^prevMask|uint64(newPrev)&prevMask)
}

// splitProbe resolves a freshly probed index-entry address. Untagged
// addresses pass through. For a cache-tagged address it dereferences the
// cached record: chain is the underlying hlog chain head (what the entry
// held before the fill), crec the cached record itself. stale means the
// cached record was evicted between the probe and the deref — the caller
// must re-probe the index. The caller holds epoch protection across
// probe, splitProbe and every use of crec, with no guard refresh between
// (in particular: resolve BEFORE any Allocate, which can refresh).
func (s *Store) splitProbe(raw hlog.Address) (chain hlog.Address, crec record, cached, stale bool) {
	if !isCacheAddr(raw) {
		return raw, record{}, false, false
	}
	rec, ok := s.rc.recordAt(raw)
	if !ok {
		return hlog.InvalidAddress, record{}, false, true
	}
	return rec.prev(), rec, true, false
}

// noteCacheInvalidation counts an index entry moving off a cached copy
// (writer RCU or deletion).
func (s *Store) noteCacheInvalidation() {
	if s.rc != nil {
		s.rc.mx.invalidations.Inc()
	}
}

// ReadCacheMetrics is a point-in-time snapshot of read-cache activity.
type ReadCacheMetrics struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Evictions     uint64
	Invalidations uint64
	Bytes         int64 // live cached bytes right now
}

func (rc *readCache) metrics() ReadCacheMetrics {
	if rc == nil {
		return ReadCacheMetrics{}
	}
	return ReadCacheMetrics{
		Hits:          rc.mx.hits.Load(),
		Misses:        rc.mx.misses.Load(),
		Fills:         rc.mx.fills.Load(),
		Evictions:     rc.mx.evictions.Load(),
		Invalidations: rc.mx.invalidations.Load(),
		Bytes:         rc.mx.bytes.Load(),
	}
}
