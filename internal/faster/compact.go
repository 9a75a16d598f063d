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
// the index entry forward exactly like a lost-update-free RCU), and then
// truncates the prefix under the epoch-safe protocol in hlog. Liveness is
// F2's lookup rule: a record is live exactly when its key's index chain
// reaches the record's address before any newer version of the key.
// Unlike the paper's administrative sketch, this version runs
// concurrently with reads, RMWs and pending I/O, and in bounded memory —
// one page, never a copy of the live values, nothing per key:
//
//   - a copy is published only if the chain reaches the record without
//     meeting a newer version of the key: publishVerified with the
//     record's address as its stop, the one verified publish an RMW
//     completed from storage uses too. The span above the record is
//     checked in memory when resident, or by an asynchronous span check
//     (opCompact) when part of it was already evicted, and a lost index
//     CAS re-checks only the span that appeared since;
//   - the prefix is truncated only after the copies are durably flushed,
//     and the device range is freed only up to the newest committed
//     checkpoint's Begin (recovery must never need truncated storage).
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
	// ReclaimedBytes is the log span logically reclaimed: until minus the
	// begin address the run started from. Device bytes actually freed can
	// lag behind it (see hlog.Metrics.TruncatedBytes) when truncation is
	// deferred behind a checkpoint.
	ReclaimedBytes uint64
}

// errCompactDelta rejects compaction over CRDT delta records.
var errCompactDelta = errors.New("faster: compaction does not support CRDT delta records")

// maxCompactValue bounds the value size compaction will copy forward.
const maxCompactValue = 1 << 16

// Compact copies every still-live record in [BeginAddress, until) to the
// tail and truncates the prefix. until must be at or below the safe
// read-only address and must be a record boundary — page-aligned
// addresses always are (SafeReadOnlyAddress and TailAddress are record
// boundaries too). It is safe to run concurrently with normal operations;
// concurrent Compact/TruncateUntil calls serialize. The calling goroutine
// must not hold an active (unparked) session (Compact drives its own).
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
	type candidate struct {
		key, val []byte
		addr     hlog.Address
	}
	var cands []candidate
	arena := make([]byte, 0, s.log.PageSize())
	var err, scanErr error
	for addr := begin; addr < until && opErr == nil; {
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
	}
	tally(sess.CompletePending(true))
	if err = cmp.Or(err, scanErr, opErr); err != nil {
		return stats, err
	}

	// Make the copies durable before destroying their sources, then
	// truncate. A poisoned tail aborts here with the prefix intact.
	t := s.log.ShiftReadOnlyToTail()
	if err := s.log.WaitUntilFlushed(t, sess.g); err != nil {
		return stats, err
	}
	if _, err := s.log.ShiftBeginAddress(until, sess.g); err != nil {
		return stats, err
	}
	stats.ReclaimedBytes = until - begin
	s.mx.compactions.Inc()
	s.mx.compactedRecords.Add(uint64(stats.Copied))
	s.mx.compactedBytes.Add(stats.CopiedBytes)
	s.mx.reclaimedBytes.Add(stats.ReclaimedBytes)
	if err := s.log.ApplyDeviceTruncation(s.deviceTruncateLimit(until)); err != nil {
		// The prefix is logically gone (begin advanced); only the device
		// free failed. Surface it — the next truncation or checkpoint
		// retries from the monotone watermark.
		return stats, err
	}
	return stats, nil
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
