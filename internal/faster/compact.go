package faster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hlog"
)

// Log compaction (the "Roll To Tail" garbage collection of Appendix C,
// grown into an online operation): Compact scans the stable prefix
// [BeginAddress, until), finds each key whose newest version still lives
// below the cut, copies that version to the tail (CASing the index entry
// forward exactly like a lost-update-free RCU), and then truncates the
// prefix under the epoch-safe protocol in hlog. Unlike the paper's
// administrative sketch, this version runs concurrently with reads, RMWs
// and pending I/O:
//
//   - a copy is published only if no newer version of the key exists in
//     the chain span above the cut — verified in memory when the span is
//     resident, or via an asynchronous span descent (opCompact) when part
//     of it was already evicted, mirroring the RMW verify protocol;
//   - a lost index CAS re-verifies only the span that appeared since
//     (addresses are monotone, so the re-check converges);
//   - the prefix is truncated only after the copies are durably flushed,
//     and the device range is freed only up to the newest committed
//     checkpoint's Begin (recovery must never need truncated storage).
//
// Keys whose newest below-cut state is a tombstone are simply dropped:
// the delete dies with the prefix. CRDT delta chains are not supported —
// a delta below the cut cannot be copied without reconciling the whole
// chain — so compaction refuses delta records.

// CompactStats reports one Compact run.
type CompactStats struct {
	// Copied counts live records re-appended at the tail; CopiedBytes is
	// their total record size (the write amplification numerator).
	Copied      int
	CopiedBytes uint64
	// Skipped counts candidate keys that needed no copy (superseded above
	// the cut, or deleted since the scan).
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

	// Phase 1: one scan of the doomed prefix, folding it into each key's
	// newest below-cut state. Log order is version order for a single
	// key, so last-seen wins and a tombstone erases the key.
	live := map[string][]byte{}
	var scanErr error
	err := s.Scan(ScanOptions{From: begin, To: until}, func(r ScanRecord) bool {
		if r.Delta {
			scanErr = errCompactDelta
			return false
		}
		if r.Tombstone {
			delete(live, string(r.Key))
			return true
		}
		if len(r.Value) > maxCompactValue {
			scanErr = fmt.Errorf("faster: compact: record at %#x value %d bytes exceeds limit %d",
				r.Address, len(r.Value), maxCompactValue)
			return false
		}
		// Scan buffers are transient: copy, reusing the key's previous
		// backing array across versions.
		live[string(r.Key)] = append(live[string(r.Key)][:0], r.Value...)
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return stats, err
	}

	// Phase 2: roll each candidate forward on a private session. Copies
	// race concurrent writers through the ordinary append/CAS protocol,
	// so a candidate superseded mid-flight is simply skipped.
	sess := s.StartSession()
	defer sess.Close()
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
	for key, val := range live {
		sess.compactKey([]byte(key), val, until, &stats)
		if sess.inFlight >= 32 {
			tally(sess.CompletePending(true))
		}
		if opErr != nil {
			break
		}
	}
	tally(sess.CompletePending(true))
	if opErr != nil {
		return stats, opErr
	}

	// Phase 3: make the copies durable before destroying their sources,
	// then truncate. A poisoned tail aborts here with the prefix intact.
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

// compactKey rolls one candidate forward: skip if the index chain already
// supersedes it (a version of the key at or above the cut), copy-append
// otherwise. When part of the span [until, head) was evicted before it
// could be checked in memory, the check continues asynchronously as an
// opCompact descent and the result is tallied from CompletePending.
func (sess *Session) compactKey(key, val []byte, until hlog.Address, stats *CompactStats) {
	s := sess.s
	h := hashKey(key)
	for {
		sess.opStart()
		entry, cur, ok := s.idx.FindEntry(h)
		if !ok {
			stats.Skipped++ // deleted since the scan (entry released)
			return
		}
		// The entry may point at a read-cache copy. A cached copy is
		// volatile and must not suppress the copy-forward (truncation would
		// strand the cache with no durable backing): trace the underlying
		// hlog chain, and publish with the raw address as the CAS
		// expectation (which drops the cached copy, RCU-style).
		chain, _, cached, stale := s.splitProbe(cur)
		if stale {
			continue
		}
		if !cached && chain < s.log.BeginAddress() {
			entry.CompareAndDelete(cur)
			stats.Skipped++
			return
		}
		laddr, _, found := s.traceBack(key, chain, maxAddr(s.log.HeadAddress(), until))
		if found {
			stats.Skipped++ // superseded at or above the cut
			return
		}
		if laddr == hlog.InvalidAddress {
			// The chain ended (or dropped below begin) without reaching
			// the scanned version: the entry was released and recreated,
			// which only happens once the key is dead. Copying would
			// resurrect a delete.
			stats.Skipped++
			return
		}
		if laddr < until {
			// The resident span above the cut is clean: the scanned value
			// is the key's newest version. Publish the copy against the
			// observed chain head; a lost CAS means a concurrent append
			// landed, so re-examine from the index.
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
		// laddr is inside [until, head): that part of the chain was
		// evicted, so whether a newer version of the key exists there can
		// only be answered from storage. Descend asynchronously.
		op := sess.newPendingOp(opCompact, key, nil, nil, nil)
		op.compactVal = val
		op.verifyStop = until - 1 // clean once the descent passes below the cut
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
// span check: the descent from op.addr found no version of the key above
// the cut, so the copy is still current — unless the index entry moved
// since, in which case only the newly appeared span needs checking
// (mirroring publishFetched's protocol, including the switch back to an
// asynchronous descent when that span was evicted too).
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
		nchain, _, ncached, nstale := s.splitProbe(cur)
		if nstale {
			chainHead = cur
			continue
		}
		if !ncached && nchain < s.log.BeginAddress() {
			return finish(NotFound, nil) // entry released: key dead
		}
		floor := maxAddr(s.log.HeadAddress(), prev+1)
		laddr, _, found := s.traceBack(op.key, nchain, floor)
		if found {
			return finish(NotFound, nil) // superseded while verifying
		}
		if laddr != hlog.InvalidAddress && laddr > prev {
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
