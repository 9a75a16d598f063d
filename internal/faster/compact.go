package faster

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"repro/internal/hlog"
)

// Log compaction (the "Roll To Tail" garbage collection of Appendix C,
// grown into an online operation): Compact scans the stable prefix
// [BeginAddress, until) once, copies each live record to the tail (CASing
// the index entry forward exactly like a lost-update-free RCU), and
// truncates the prefix under the epoch-safe protocol in hlog as it goes,
// a chunk of pages at a time. Liveness is F2's lookup rule: a record is
// live exactly when its key's index chain reaches the record's address
// before any newer version of the key. Unlike the paper's administrative
// sketch, this version runs concurrently with reads, RMWs and pending
// I/O, in bounded memory — one page, never a copy of the live values,
// nothing per key — and in bounded device space: about one chunk of
// copies on top of the prefix, never a second copy of the live set:
//
//   - a copy is published only if the chain reaches the record without
//     meeting a newer version of the key: publishVerified with the
//     record's address as its stop, the one verified publish an RMW
//     completed from storage uses too. The span above the record is
//     checked in memory when resident, or by an asynchronous span check
//     (opCompact) when part of it was already evicted, and a lost index
//     CAS re-checks only the span that appeared since;
//   - a chunk of the prefix is truncated only after its copies have
//     flushed, and the device range is freed only up to the newest
//     committed checkpoint's Begin and any checkpoint's pin (recovery
//     must never need truncated storage).
//
// Tombstones are never copied: a key whose newest version is a tombstone
// in the prefix dies with it. CRDT delta chains are not supported —
// a delta below the cut cannot be copied without reconciling the whole
// chain — so compaction refuses delta records: one in the prefix, or one
// above the cut that is the newest version of a prefix record's key (the
// record stays live beneath it, and a copy appended above the delta
// would hide it).

// CompactStats reports one Compact run.
type CompactStats struct {
	// Copied counts live records re-appended at the tail; CopiedBytes is
	// their total record size (the write amplification numerator).
	Copied      int
	CopiedBytes uint64
	// Skipped counts scanned non-tombstone records that needed no copy:
	// superseded by a newer version of their key (in the prefix or above
	// it), or left off the chain because the key died.
	Skipped int
	// ReclaimedBytes is the log span logically reclaimed: the end of the
	// last chunk cut (until, once the run succeeds) minus the begin
	// address the run started from. Device bytes actually freed can
	// lag behind it (see hlog.Metrics.TruncatedBytes) when truncation is
	// deferred behind a checkpoint.
	ReclaimedBytes uint64
}

// errCompactDelta rejects compaction over CRDT delta records.
var errCompactDelta = errors.New("faster: compaction does not support CRDT delta records")

// maxCompactValue bounds the value size compaction will copy forward.
const maxCompactValue = 1 << 16

// compactChunkPages is how many log pages Compact cuts at a time: the
// device space a pass needs on top of the prefix is about one such chunk
// of copies plus the mutable window they flush out of.
const compactChunkPages = 4

// Compact copies every still-live record in [BeginAddress, until) to the
// tail and truncates the prefix, chunk by chunk. On an error the chunks
// already cut stay cut (ReclaimedBytes counts them) and the rest of the
// prefix stays in place. until must be at or below the safe read-only
// address and must be a record boundary — page-aligned addresses always
// are (SafeReadOnlyAddress and TailAddress are record boundaries too). It
// is safe to run concurrently with normal operations; concurrent
// Compact/TruncateUntil calls serialize. The calling goroutine must not
// hold an active (unparked) session (Compact drives its own).
func (s *Store) Compact(until hlog.Address) (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var stats CompactStats
	if err := s.checkWritable(); err != nil {
		return stats, err
	}
	begin := s.log.BeginAddress()
	if until <= begin {
		return stats, nil
	}
	if safeRO := s.log.SafeReadOnlyAddress(); until > safeRO {
		return stats, fmt.Errorf("faster: compact until %#x beyond safe read-only %#x", until, safeRO)
	}

	// The scan walks the prefix one page at a time on the driver's own
	// session guard and one reusable page buffer. The guard is refreshed
	// per page and is the only guard the driver holds, so the scan never
	// pins the epoch while the session appends (Allocate waits for every
	// guard to refresh).
	//
	// Each page's records are copied into a reusable arena before any of
	// them is checked: a resident page is only valid until the guard's
	// next refresh, and appending refreshes it. The prefix is immutable
	// (until is at most the safe read-only address, and compactMu
	// excludes other truncations), so a copied record still matches the
	// log when compactKey checks it. Copies race concurrent writers
	// through the ordinary append/CAS protocol, so a record superseded
	// mid-flight is simply skipped.
	sess := s.StartSession()
	defer sess.Close()
	pageBuf := make([]byte, s.log.PageSize())
	var opErr error
	tally := func(results []Result) {
		for _, res := range results {
			if res.Kind != "compact" {
				continue
			}
			switch res.Status {
			case OK:
				stats.Copied++
				stats.CopiedBytes += uint64(recordSize(len(res.Key), res.ValueLen))
			case NotFound:
				stats.Skipped++
			default:
				if opErr == nil {
					opErr = res.Err
				}
			}
		}
	}

	// The prefix is cut in chunks of compactChunkPages pages as the pass
	// goes, so the device never holds much more than one chunk's copies
	// next to the records they replace. Once a chunk's candidates and
	// their span checks are done, every copy of the chunk lies below the
	// tail: the chunk is cut when the flush watermark passes that tail,
	// which the log's own page turns bring about while the pass appends.
	// cuts holds the chunks done but not yet cut, oldest first.
	chunkBytes := compactChunkPages * s.log.PageSize()
	chunkEnd := min(begin|(chunkBytes-1)+1, until)
	type chunkCut struct{ end, tail hlog.Address }
	var cuts []chunkCut
	var truncErr error
	cut := func(end hlog.Address) error {
		if _, err := s.log.ShiftBeginAddress(end, sess.g); err != nil {
			return err
		}
		s.mx.reclaimedBytes.Add(end - begin - stats.ReclaimedBytes)
		stats.ReclaimedBytes = end - begin
		// A failed device free leaves the prefix logically gone (begin
		// advanced); the next cut, or a later truncation or checkpoint,
		// retries it from the monotone watermark.
		truncErr = s.log.ApplyDeviceTruncation(s.deviceTruncateLimit(end))
		return nil
	}
	cutFlushed := func() error {
		n := 0
		for n < len(cuts) && cuts[n].tail <= s.log.FlushedUntilAddress() {
			n++
		}
		if n == 0 {
			return nil
		}
		end := cuts[n-1].end
		cuts = cuts[:copy(cuts, cuts[n:])]
		return cut(end)
	}

	type candidate struct {
		key, val []byte
		addr     hlog.Address
	}
	var cands []candidate
	arena := make([]byte, 0, s.log.PageSize())
	var err, scanErr error
	for addr := begin; addr < until && opErr == nil && err == nil; {
		var cont bool
		addr, cont, err = s.scanPage(sess.g, addr, until, pageBuf, false, func(r ScanRecord) bool {
			switch {
			case r.Delta:
				scanErr = errCompactDelta
				return false
			case r.Tombstone:
				// Nothing to copy: an older version below it meets it
				// on the chain, and the delete dies with the prefix.
				return true
			case len(r.Value) > maxCompactValue:
				scanErr = fmt.Errorf("faster: compact: record at %#x value %d bytes exceeds limit %d",
					r.Address, len(r.Value), maxCompactValue)
				return false
			}
			n := len(arena)
			arena = append(append(arena, r.Key...), r.Value...)
			cands = append(cands, candidate{arena[n : n+len(r.Key)], arena[n+len(r.Key):], r.Address})
			return true
		})
		if err != nil || !cont {
			break
		}
		for _, c := range cands {
			opErr = sess.compactKey(c.key, c.val, c.addr, &stats)
			if sess.inFlight >= 32 {
				tally(sess.CompletePending(true))
			}
			if opErr != nil {
				break
			}
		}
		cands, arena = cands[:0], arena[:0]
		if addr >= chunkEnd && chunkEnd < until && opErr == nil {
			tally(sess.CompletePending(true))
			if opErr == nil {
				cuts = append(cuts, chunkCut{chunkEnd, s.log.TailAddress()})
				chunkEnd = min(chunkEnd+chunkBytes, until)
			}
		}
		err = cutFlushed()
	}
	tally(sess.CompletePending(true))
	if err = cmp.Or(err, scanErr, opErr); err != nil {
		return stats, err
	}

	// The last chunks' copies may still be mutable. Make each durable
	// before destroying its sources, oldest first, then cut it. A
	// poisoned tail aborts here with the rest of the prefix intact.
	for _, c := range append(cuts, chunkCut{until, s.log.TailAddress()}) {
		s.log.ShiftReadOnlyTo(c.tail)
		if err := s.log.WaitUntilFlushed(c.tail, sess.g); err != nil {
			return stats, err
		}
		if err := cut(c.end); err != nil {
			return stats, err
		}
	}
	s.mx.compactions.Inc()
	s.mx.compactedRecords.Add(uint64(stats.Copied))
	s.mx.compactedBytes.Add(stats.CopiedBytes)
	return stats, truncErr
}

// compactKey rolls the scanned record (key, val) at address a forward if
// it is live: publishVerified with stop a. A superseded record is skipped.
// When part of the chain above a was evicted before it could be checked
// in memory, the check continues asynchronously as an opCompact span
// check, on the op's own copy of val (the caller reuses val's memory for
// the next page), and its result is tallied from CompletePending.
func (sess *Session) compactKey(key, val []byte, a hlog.Address, stats *CompactStats) error {
	sess.opStart()
	st, sp, err := sess.publishVerified(hashKey(key), key, a, len(val), func(dst record) {
		copy(dst.value, val)
	})
	switch {
	case err != nil:
		return err
	case st == statusDone:
		stats.Copied++
		stats.CopiedBytes += uint64(recordSize(len(key), len(val)))
	case st == statusRetry:
		stats.Skipped++
	default:
		op := sess.newPendingOp(opCompact, key, nil, nil, nil)
		op.val = append([]byte(nil), val...)
		sess.checkSpan(op, sp)
	}
	return nil
}

// maintInterval is how often the background maintainer samples the log.
const maintInterval = 100 * time.Millisecond

// maintainerLoop is the size-triggered background compaction policy: when
// the reclaimable region outgrows Config.CompactionThreshold, compact the
// older half of it (page-aligned). Runs until Close.
func (s *Store) maintainerLoop() {
	defer s.maintWG.Done()
	ticker := time.NewTicker(maintInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-ticker.C:
		}
		s.maybeCompact()
	}
}

// maybeCompact runs one background compaction round if the policy fires.
// Errors are swallowed: the health ladder and metrics already record the
// causes, and the maintainer retries on the next tick.
func (s *Store) maybeCompact() {
	if s.Health() >= ReadOnly {
		return
	}
	begin := s.log.BeginAddress()
	safeRO := s.log.SafeReadOnlyAddress()
	if safeRO <= begin || safeRO-begin < s.cfg.CompactionThreshold {
		return
	}
	until := (begin + (safeRO-begin)/2) &^ (s.log.PageSize() - 1)
	if until <= begin {
		return
	}
	_, _ = s.Compact(until)
}
