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
//     meeting a newer version of the key — verified in memory when the
//     span above it is resident, or via an asynchronous span descent
//     (opCompact) when part of it was already evicted, mirroring the RMW
//     verify protocol;
//   - a lost index CAS re-verifies only the span that appeared since
//     (addresses are monotone, so the re-check converges);
//   - the prefix is truncated only after the copies are durably flushed,
//     and the device range is freed only up to the newest committed
//     checkpoint's Begin (recovery must never need truncated storage).
//
// Tombstones are never copied: a key whose newest version is a tombstone
// in the prefix dies with it. CRDT delta chains are not supported —
// a delta below the cut cannot be copied without reconciling the whole
// chain — so compaction refuses delta records.

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
			sess.compactKey(c.key, c.val, c.addr, &stats)
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
// it is live: the key's index chain must reach a before any newer version
// of the key. A newer version (even a tombstone) or a chain that skips a
// (the entry was released and recreated, so the key died) means the copy
// is not needed. When part of the span above a was evicted before it
// could be checked in memory, the check continues asynchronously as an
// opCompact descent and the result is tallied from CompletePending.
func (sess *Session) compactKey(key, val []byte, a hlog.Address, stats *CompactStats) {
	s := sess.s
	h := hashKey(key)
	for {
		sess.opStart()
		_, cur, ok := s.idx.FindEntry(h)
		if !ok {
			stats.Skipped++ // deleted since the scan (entry released)
			return
		}
		// The entry may point at a read-cache copy. A cached copy is
		// volatile and must not suppress the copy-forward (truncation would
		// strand the cache with no durable backing): trace the underlying
		// hlog chain, and publish with the raw address as the CAS
		// expectation (which drops the cached copy, RCU-style).
		chain, _, _, stale := s.splitProbe(cur)
		if stale {
			continue
		}
		laddr, _, found := s.traceBack(key, chain, maxAddr(s.log.HeadAddress(), a+1))
		switch {
		case found || laddr < a:
			// Superseded, or a is not on the chain (InvalidAddress, a
			// chain that ended or dropped below begin, is below a too).
			stats.Skipped++
			return
		case laddr == a:
			// The record is the key's newest version. Publish the copy
			// against the observed chain head; a lost CAS means a
			// concurrent append landed, so re-examine from the index.
			_, st, err := sess.appendRecord(h, key, cur, chain, hlog.InvalidAddress, 0, len(val), func(dst record) {
				copy(dst.value, val)
			})
			if err != nil {
				// Tally as a failed pending result so the driver aborts.
				sess.completedCompactError(key, err)
				return
			}
			if st == statusDone {
				stats.Copied++
				stats.CopiedBytes += uint64(recordSize(len(key), len(val)))
				return
			}
			continue
		}
		// laddr is inside (a, head): that part of the chain was evicted,
		// so whether a newer version of the key exists there can only be
		// answered from storage. Descend asynchronously, on a copy of the
		// value: the caller reuses val's memory for the next page.
		op := sess.newPendingOp(opCompact, key, nil, nil, nil)
		op.compactVal = append([]byte(nil), val...)
		op.verifyStop = a
		op.verifyCur = cur
		op.addr = laddr
		sess.issueIO(op)
		return
	}
}

// completedCompactError surfaces a synchronous append failure through the
// same Result channel the asynchronous path uses, so the driver's tally
// sees every failure uniformly.
func (sess *Session) completedCompactError(key []byte, err error) {
	op := sess.newPendingOp(opCompact, key, nil, nil, nil)
	op.err = err
	sess.inFlight++ // consumed by the completePending drain
	sess.s.mx.pendingDepth.Inc()
	op.issuedNs = time.Now().UnixNano()
	sess.completed.push(op)
}

// republishCompact publishes (or abandons) a compaction copy after its
// span check: the descent from op.addr reached the record without meeting
// a newer version of the key, so the copy is still current — unless the
// index entry moved since, in which case only the newly appeared span
// needs checking (mirroring publishFetched's protocol, including the
// switch back to an asynchronous descent when that span was evicted too).
func (sess *Session) republishCompact(op *PendingOp) (Result, bool) {
	s := sess.s
	finish := func(st Status, err error) (Result, bool) {
		res := Result{Kind: "compact", Key: op.key, Status: st, Err: err, Ctx: op.ctx}
		if st == OK {
			res.ValueLen = len(op.compactVal)
		}
		return res, true
	}
	h := hashKey(op.key)
	chainHead := op.verifyCur
	for {
		// chainHead is the raw index-entry address; it may point at a
		// read-cache copy, in which case the appended record's prev must be
		// the underlying hlog chain head (a cached copy never supersedes
		// the scanned value — it mirrors the newest hlog version, which the
		// span check just proved is the scanned one).
		expect := chainHead
		prev, _, _, stale := s.splitProbe(chainHead)
		if stale {
			_, cur, ok := s.idx.FindEntry(h)
			if !ok {
				return finish(NotFound, nil) // entry released: key dead
			}
			chainHead = cur
			continue
		}
		_, st, err := sess.appendRecord(h, op.key, expect, prev, hlog.InvalidAddress, 0, len(op.compactVal), func(dst record) {
			copy(dst.value, op.compactVal)
		})
		if err != nil {
			return finish(Err, err)
		}
		if st == statusDone {
			return finish(OK, nil)
		}
		// Lost the CAS: check only the span that appeared above our
		// verified head.
		_, cur, ok := s.idx.FindEntry(h)
		if !ok {
			return finish(NotFound, nil) // entry released: key dead
		}
		nchain, _, _, nstale := s.splitProbe(cur)
		if nstale {
			chainHead = cur
			continue
		}
		// The same rule as compactKey's, with the verified head prev in
		// place of the record.
		laddr, _, found := s.traceBack(op.key, nchain, maxAddr(s.log.HeadAddress(), prev+1))
		if found || laddr < prev {
			return finish(NotFound, nil) // superseded, or the key died
		}
		if laddr > prev {
			// The new span was partially evicted: verify it on storage.
			if op.buf != nil {
				sess.putIOBuf(op.buf)
				op.buf = nil
			}
			op.verifyStop = prev
			op.verifyCur = cur
			op.addr = laddr
			sess.ioDone()
			sess.issueIO(op)
			return Result{}, false
		}
		chainHead = cur
	}
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
