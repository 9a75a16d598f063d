package faster

import (
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/metrics"
)

// Read cache (F2 / Deuteronomy 2.0 style): a second, small HybridLog
// sitting between the hash index and the main one. When a cold read
// completes from storage, the record is appended to the cache log and the
// index entry is CASed from the main log's chain head to the cached copy,
// so repeated reads of the same cold record stop paying a device
// round-trip. The cache is purely an index-level redirection:
//
//   - The cache log is an append-only hlog.Log over a Null device on the
//     store's epoch manager: fills allocate latch-free at its tail, and
//     page turns, frame reuse and their epoch waits are the log's own.
//   - Cache addresses are tagged with bit 47 (cacheAddrBit). The main log
//     never reaches 2^47 bytes, so tagged addresses are disjoint from its
//     addresses while still fitting the index's 48-bit address field.
//   - A cached record's prev field holds the main-log address the entry
//     carried before the fill (the chain head). Invalidation is therefore
//     the ordinary RCU discipline: an upsert/RMW/delete appends at the
//     tail and CASes the entry from the tagged address to the new record,
//     which simply drops the cached copy out of the chain. Readers that
//     miss the cached key (hash collisions) continue at prev.
//   - Cache addresses live ONLY in index entries. No main-log record ever
//     has a tagged prev (those records are persisted; the cache is
//     volatile), and checkpoints/recovery strip tagged addresses
//     (checkpoint.go).
//
// Eviction is the cache log's head passing a page, FIFO with a second
// chance. The log calls restore for the passed range once every thread
// has drained past the head shift, so every fill on those pages has
// published or lost its CAS; restore moves each live entry back to its
// underlying address and only then does the log let the frames close,
// after one more epoch drain, so a reader that probed a tagged entry
// before the restore still dereferences it safely under its guard. Reads
// that hit a cached record set flagCacheRef in its header; restore copies
// referenced records aside and the next fill re-fills them (the
// CLOCK-approximation that internal/cachesim measured best for zipfian
// reads).

// cacheAddrBit tags index-entry addresses that point into the read cache
// instead of the HybridLog. It is inside the index's AddressMask (bit 47
// of 48) and above any reachable hlog address.
const cacheAddrBit = hlog.Address(1) << 47

// isCacheAddr reports whether an index-entry address points into the
// read cache.
func isCacheAddr(a hlog.Address) bool { return a&cacheAddrBit != 0 }

// readCache is the record read cache: reads and fills are latch-free.
type readCache struct {
	s   *Store
	log *hlog.Log

	// evicted is the end of the last range restore finished. The frames
	// below it may be reopened as soon as the dereferencing thread's guard
	// moves on, so a tagged address below it is not dereferenced: its
	// entry has been restored, or is being undone by a late fill (fill),
	// and the caller re-probes.
	evicted atomic.Uint64

	// readmit hands the referenced records the last restore copied off
	// its pages to the next fill, which re-fills them.
	readmit atomic.Pointer[[]readmitRec]

	mx struct {
		hits          metrics.Counter
		misses        metrics.Counter
		fills         metrics.Counter
		evictions     metrics.Counter
		invalidations metrics.Counter
	}
}

// readmitRec is a second-chance candidate copied off an evicted page.
type readmitRec struct {
	hash       uint64
	prev       hlog.Address // restored underlying address (CAS expectation)
	key, value []byte
}

// newReadCache sizes a cache of at most capBytes. Pages shrink from
// 64 KB until at least 4 fit (FIFO over fewer pages evicts too much of
// the working set at once), with a floor of 512-byte pages; the page
// count is the largest power of two that fits, and at least 2.
func newReadCache(s *Store, capBytes uint64) (*readCache, error) {
	pageBits := uint(16)
	for pageBits > 9 && capBytes>>pageBits < 4 {
		pageBits--
	}
	pages := 2
	for uint64(pages*2) <= capBytes>>pageBits {
		pages *= 2
	}
	rc := &readCache{s: s}
	log, err := hlog.New(hlog.Config{
		PageBits:    pageBits,
		BufferPages: pages,
		Mode:        hlog.ModeAppendOnly,
		Device:      device.NewNull(),
		Epoch:       s.em,
		OnEvict:     rc.restore,
	})
	if err != nil {
		return nil, err
	}
	rc.log = log
	return rc, nil
}

// arenaBytes reports the cache's frame memory (0 without a cache).
func (rc *readCache) arenaBytes() uint64 {
	if rc == nil {
		return 0
	}
	return rc.log.FrameBytes()
}

// free releases the frames. Every epoch action must have run, and no
// reader may be left.
func (rc *readCache) free() {
	if rc != nil {
		rc.log.Close()
	}
}

// recordAt decodes the cached record behind the tagged address a. ok is
// false when a's page was evicted between the index probe and this
// dereference (the caller re-probes). The caller must hold epoch
// protection taken before the probe and must not refresh it before the
// last use of the returned record.
func (rc *readCache) recordAt(a hlog.Address) (record, bool) {
	off := a &^ cacheAddrBit
	if off < rc.evicted.Load() {
		return record{}, false
	}
	return parseRecordHeader(rc.log.Slice(off), atomic.LoadUint64(rc.log.Uint64Ptr(off)))
}

// noteHit counts a successful cached read and marks the record referenced
// (its second chance at eviction). a came from recordAt under the same
// guard.
func (rc *readCache) noteHit(a hlog.Address) {
	rc.mx.hits.Inc()
	p := rc.log.Uint64Ptr(a &^ cacheAddrBit)
	for {
		old := atomic.LoadUint64(p)
		if old&flagCacheRef != 0 || atomic.CompareAndSwapUint64(p, old, old|flagCacheRef) {
			return
		}
	}
}

// fill copies a record fetched from storage into the cache and republishes
// the index entry for hash h from expect (the untagged chain head the read
// observed) to the cached copy, then re-fills the records the last
// eviction gave a second chance. Failure at any step just leaves the
// cache cold — the read already completed from the fetched buffer. g is
// the filling session's epoch guard.
func (rc *readCache) fill(g *epoch.Guard, h uint64, key, value []byte, expect hlog.Address) {
	rc.insert(g, h, key, value, expect)
	if recs := rc.readmit.Swap(nil); recs != nil {
		for _, r := range *recs {
			rc.insert(g, r.hash, r.key, r.value, r.prev)
		}
	}
}

// insert appends one record and CASes the entry for h from expect to it.
// The entry must still hold expect: any interleaved write, delete,
// compaction republish or competing fill moves it, the CAS fails and the
// copy is garbage that restore skips.
func (rc *readCache) insert(g *epoch.Guard, h uint64, key, value []byte, expect hlog.Address) {
	size := recordSize(len(key), len(value))
	off, err := rc.log.Allocate(size, g)
	if err != nil {
		return // larger than a page, or the store is closing
	}
	rec := writeRecord(rc.log.Slice(off)[:size], expect, 0, key, len(value))
	copy(rec.value, value)
	if debugFillCAS != nil {
		debugFillCAS(g)
	}
	c := cacheAddrBit | off
	if !rc.moveEntry(h, expect, c) {
		return
	}
	if off < rc.log.HeadAddress() {
		// The page was evicted under this fill, so restore may already
		// have passed the entry: move it back. A filler holding its guard
		// from Allocate to here never gets this far (restore waits on
		// that guard); one that lost it must not leave a tagged entry
		// behind for a frame that can be reopened.
		rc.moveEntry(h, c, expect)
		return
	}
	rc.mx.fills.Inc()
}

// moveEntry CASes the index entry for h from one address to another. It
// reports false once the entry holds anything but from; a CAS lost to an
// index resize, which poisons the slot it migrates, is retried on the
// entry's new slot.
func (rc *readCache) moveEntry(h uint64, from, to hlog.Address) bool {
	for {
		e, cur, found := rc.s.idx.FindEntry(h)
		if !found || cur != from {
			return false
		}
		if e.CompareAndSwapAddress(from, to) {
			return true
		}
	}
}

// restore is the cache log's OnEvict: it CASes every live entry of the
// records in [from, to) from its cached address back to the underlying
// address, and copies aside the referenced ones, up to half a page of
// keys and values, for the next fill to re-fill with the bit cleared.
func (rc *readCache) restore(from, to hlog.Address) {
	ps := rc.log.PageSize()
	budget := int(ps / 2)
	var recs []readmitRec
	var scratch []byte
	for page := from; page < to; page += ps {
		off := max(page, hlog.FirstValidAddress)
		for off < page+ps {
			hdr := atomic.LoadUint64(rc.log.Uint64Ptr(off))
			rec, ok := parseRecordHeader(rc.log.Slice(off), hdr)
			if !ok {
				break // zero keyLen: page padding, rest of the page is empty
			}
			c := cacheAddrBit | off
			off += uint64(rec.size)
			hk := hashKey(rec.key)
			if !rc.moveEntry(hk, c, rec.prev()) {
				continue // a writer already moved the entry, or the fill lost
			}
			rc.mx.evictions.Inc()
			if hdr&flagCacheRef != 0 && len(scratch)+len(rec.key)+len(rec.value) <= budget {
				if scratch == nil {
					scratch = make([]byte, 0, budget)
				}
				n := len(scratch)
				scratch = append(append(scratch, rec.key...), rec.value...)
				recs = append(recs, readmitRec{
					hash:  hk,
					prev:  rec.prev(),
					key:   scratch[n : n+len(rec.key)],
					value: scratch[n+len(rec.key):],
				})
			}
		}
	}
	rc.evicted.Store(to)
	if recs != nil {
		rc.readmit.Store(&recs)
	}
}

// redirectPrev CASes the cached record's underlying chain pointer from
// oldPrev to newPrev, preserving the flag bits. Only the
// skip-cache-invalidate mutation seed uses this (mutate_on.go): it links
// a freshly appended hlog record BEHIND the cached copy instead of
// republishing the index entry, so readers keep being served the stale
// cached value — the exact bug class the linearize checker must catch.
func (rc *readCache) redirectPrev(a hlog.Address, oldPrev, newPrev hlog.Address) bool {
	off := a &^ cacheAddrBit
	if off < rc.evicted.Load() {
		return false
	}
	p := rc.log.Uint64Ptr(off)
	old := atomic.LoadUint64(p)
	if old&prevMask != uint64(oldPrev) {
		return false
	}
	return atomic.CompareAndSwapUint64(p, old, old&^prevMask|uint64(newPrev)&prevMask)
}

// splitProbe resolves a freshly probed index-entry address. Untagged
// addresses pass through. For a cache-tagged address it dereferences the
// cached record: chain is the underlying hlog chain head (what the entry
// held before the fill), crec the cached record itself. stale means the
// cached record's page was evicted between the probe and the deref — the
// caller must re-probe the index, which needs no guard refresh: the entry
// is restored already, or its late filler is moving it back. The caller
// holds epoch protection across probe, splitProbe and every use of crec,
// with no guard refresh between (in particular: resolve BEFORE any
// Allocate, which can refresh).
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
	Bytes         int64 // bytes between the cache log's head and tail
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
		Bytes:         int64(rc.log.TailAddress() - rc.log.HeadAddress()),
	}
}
