package faster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/index"
)

// Session is a registered FASTER thread (§2.5). Exactly one goroutine may
// drive a session; a session owns an epoch-table slot, refreshes it
// automatically every RefreshInterval operations, and carries the pending
// queue for operations that went asynchronous.
type Session struct {
	s        *Store
	g        *epoch.Guard
	stat     *sessionStats // private counter block (see faster.go)
	opsSince int

	completed completionQueue // async I/O completions land here
	group     completionGroup // the group of one CompletePending drives
	retries   []*PendingOp    // fuzzy-region deferrals (§6.3)
	retrying  bool            // completePass is re-running a deferral
	inFlight  int             // issued I/Os not yet returned to the user

	spinDebug uint64 // test instrumentation

	// Pooled scratch for the slow paths. The session is single-goroutine,
	// so plain free lists suffice: accScratch is the CRDT read
	// accumulator (ownership follows the op while it is pending), opFree
	// recycles continuation structs, ioBufs recycles fetch buffers.
	accScratch []byte
	opFree     []*PendingOp
	ioBufs     [][]byte
	drained    []*PendingOp // completePass's scratch for the drained completion queue

	// Batch scratch (batch.go), reused across ExecBatch calls.
	batchHash  []uint64
	batchPlan  []batchAppend
	batchDefer []int
	batchEntry []index.Entry
	batchAddr  []hlog.Address

	// residentOnly makes storage misses (and fuzzy-region deferrals)
	// return WouldBlock instead of going Pending on this session, so the
	// goroutine driving it never waits on device I/O — the caller reroutes
	// the miss to the io-worker pool (SubmitRead/SubmitRMW).
	residentOnly bool
	// ownOutputs marks an io-worker session: its reads carry no caller
	// buffer, each output is allocated by outFor and handed to the Result.
	// owned is the buffer of the read that last completed synchronously.
	ownOutputs bool
	owned      []byte

	closed bool
}

// outFor returns the buffer a read copies an n-byte value into: the
// caller's, except on an io-worker session, where it is allocated here —
// when the value is in hand and its length known — so no read is sized by
// a configured maximum.
func (sess *Session) outFor(output []byte, n int) []byte {
	if !sess.ownOutputs {
		return output
	}
	sess.owned = make([]byte, n)
	return sess.owned
}

// SetResidentOnly toggles resident-only mode: with it set, Read/RMW (and
// their batch forms) return WouldBlock on a storage miss or fuzzy-region
// hit instead of issuing asynchronous work on this session. Operations
// already pending are unaffected.
func (sess *Session) SetResidentOnly(on bool) { sess.residentOnly = on }

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("faster: session closed")

// errKeyEmpty rejects zero-length keys (a zero key length marks padding
// in the log format).
var errKeyEmpty = errors.New("faster: empty key")

// StartSession registers a new session (the paper's Acquire).
func (s *Store) StartSession() *Session {
	sess := &Session{s: s, g: s.em.Acquire(), stat: s.acquireSessionStats()}
	sess.group = newCompletionGroup([]*Session{sess})
	return sess
}

// Close deregisters the session (the paper's Release). Pending operations
// are completed first.
func (sess *Session) Close() error {
	if sess.closed {
		return nil
	}
	sess.CompletePending(true)
	sess.closed = true
	sess.g.Release()
	sess.s.releaseSessionStats(sess.stat)
	return nil
}

// Refresh publishes the session into the current epoch immediately.
func (sess *Session) Refresh() { sess.g.Refresh() }

// Park marks the session idle: its epoch-table slot stays reserved, but
// it stops pinning the safe epoch, so log flushes, evictions and
// safe-read-only advancement keep making progress while the session
// waits in a pool. The caller must have drained all pending operations
// first and must call Unpark before issuing the next operation — a
// parked session holds no epoch protection.
func (sess *Session) Park() { sess.g.Park() }

// Unpark rejoins the current epoch after a Park.
func (sess *Session) Unpark() { sess.g.Unpark() }

// opStart performs the per-operation bookkeeping: the periodic refresh
// (§2.5).
func (sess *Session) opStart() {
	sess.opsSince++
	if sess.opsSince >= sess.s.cfg.RefreshInterval {
		sess.opsSince = 0
		sess.g.Refresh()
	}
}

// acquireAcc returns a zeroed accumulator of length n, reusing the
// session's scratch buffer when it is large enough. Ownership moves to
// the caller; recycleOp (or an inline release) hands it back.
func (sess *Session) acquireAcc(n int) []byte {
	buf := sess.accScratch
	sess.accScratch = nil
	if cap(buf) < n {
		return make([]byte, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// releaseAcc returns an accumulator to the session scratch slot.
func (sess *Session) releaseAcc(buf []byte) {
	if buf != nil && cap(buf) > cap(sess.accScratch) {
		sess.accScratch = buf
	}
}

// traceBack walks the in-memory record chain from addr down to (but not
// below) floor, looking for key. If found it returns the record's address
// and decoded view. Otherwise found is false and the returned address is
// the first address below floor (the on-disk continuation), or
// hlog.InvalidAddress if the chain ended.
func (s *Store) traceBack(key []byte, addr, floor hlog.Address) (hlog.Address, record, bool) {
	begin := s.log.BeginAddress()
	for addr != hlog.InvalidAddress && addr >= floor && addr >= begin {
		rec, ok := s.recordAt(addr)
		if !ok {
			return hlog.InvalidAddress, record{}, false
		}
		if !rec.invalid() && bytes.Equal(rec.key, key) {
			return addr, rec, true
		}
		addr = rec.prev()
	}
	if addr < begin {
		addr = hlog.InvalidAddress
	}
	return addr, record{}, false
}

// ---------------------------------------------------------------------------
// Read (Algorithm 2)
// ---------------------------------------------------------------------------

// Read looks up key and, if the record is in memory, invokes the reader
// function with output. On a storage miss it returns Pending and the
// result is delivered by CompletePending with ctx attached.
func (sess *Session) Read(key, input, output []byte, ctx any) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	if len(key) == 0 {
		return Err, errKeyEmpty
	}
	sess.opStart()
	sess.stat.reads.Add(1)
	return sess.readInternal(key, input, output, ctx, hashKey(key))
}

// readInternal is Read with the per-op bookkeeping hoisted out, so
// ExecBatch can pre-hash a whole batch and amortize the counters.
func (sess *Session) readInternal(key, input, output []byte, ctx any, h uint64) (Status, error) {
	entry, addr, ok := sess.s.idx.FindEntry(h)
	if !ok {
		return NotFound, nil
	}
	return sess.readAt(key, input, output, ctx, entry, addr)
}

// readAt finishes a read whose index probe already happened. ExecBatch
// probes a whole run of reads back-to-back (the probes are independent
// loads, so their cache misses overlap) and then completes each one here.
func (sess *Session) readAt(key, input, output []byte, ctx any, entry index.Entry, addr hlog.Address) (Status, error) {
	s := sess.s
	raw := addr
	if isCacheAddr(raw) {
		// The entry points into the read cache. A key match serves the
		// read from memory with zero I/O; a collision (the entry's chain
		// carries several keys) continues on the underlying hlog chain
		// the cached record's prev preserves.
		crec, ok := s.rc.recordAt(raw)
		if !ok {
			// Evicted between the probe and the deref (rare): re-probe.
			return sess.readInternal(key, input, output, ctx, hashKey(key))
		}
		if !crec.invalid() && !crec.tombstone() && !crec.delta() && bytes.Equal(crec.key, key) {
			s.rc.noteHit(raw)
			s.ops.ConcurrentReader(key, crec.value, input, sess.outFor(output, len(crec.value)))
			return OK, nil
		}
		addr = crec.prev()
		if addr == hlog.InvalidAddress {
			return NotFound, nil
		}
	} else if addr >= s.log.HeadAddress() && addr >= s.log.BeginAddress() {
		// The in-memory hit path: a live chain head that holds key
		// unflagged serves the read with no walk; anything else, a head
		// below a truncation included, takes the walk.
		if v, ok := s.headMatch(key, addr, flagInvalid|flagTombstone|flagDelta); ok {
			return sess.readValue(key, input, output, addr, v)
		}
	}
	if addr < s.log.BeginAddress() {
		if isCacheAddr(raw) {
			// The underlying chain is truncated but the entry still serves
			// another key from the cache: nothing to GC, and the sought
			// key is provably dead (a live version would have been copied
			// forward and the entry republished off the cache).
			return NotFound, nil
		}
		// Dangling entry below the truncation point: lazy GC (App. C).
		entry.CompareAndDelete(addr)
		return NotFound, nil
	}
	head := s.log.HeadAddress()
	laddr, rec, found := s.traceBack(key, addr, head)
	if found {
		if rec.tombstone() {
			return NotFound, nil
		}
		if rec.delta() {
			return sess.readReconcile(key, input, sess.outFor(output, len(rec.value)), ctx, raw, laddr, rec)
		}
		return sess.readValue(key, input, output, laddr, rec.value)
	}
	if laddr == hlog.InvalidAddress {
		return NotFound, nil
	}
	if sess.residentOnly {
		return WouldBlock, nil
	}
	// The chain continues on storage: go asynchronous. entryAddr records
	// the (raw) chain head observed here: if a truncation overtakes the
	// descent, the continuation compares it against the current index
	// entry to tell "key rescued by copy-forward" from "key provably
	// dead"; a completed cold read also fills the read cache against it.
	if s.rc != nil {
		s.rc.mx.misses.Inc()
	}
	op := sess.newPendingOp(opRead, key, input, output, ctx)
	op.addr = laddr
	op.entryAddr = raw
	sess.issueIO(op)
	return Pending, nil
}

// readValue serves a read from the in-memory value of the record at addr:
// SingleReader below the safe read-only offset, where no writer can reach
// the record, and ConcurrentReader above it.
func (sess *Session) readValue(key, input, output []byte, addr hlog.Address, value []byte) (Status, error) {
	s := sess.s
	output = sess.outFor(output, len(value))
	if addr < s.log.SafeReadOnlyAddress() {
		s.ops.SingleReader(key, value, input, output)
	} else {
		s.ops.ConcurrentReader(key, value, input, output)
	}
	return OK, nil
}

// readReconcile handles a CRDT read whose newest record is a delta: it
// folds delta values down the chain until the base record (§6.3). If the
// chain descends to storage the fold continues asynchronously. chainHead
// is the index entry the probe observed (see readAt's entryAddr note).
func (sess *Session) readReconcile(key, input, output []byte, ctx any, chainHead, addr hlog.Address, rec record) (Status, error) {
	s := sess.s
	acc := sess.acquireAcc(len(output))
	head := s.log.HeadAddress()
	begin := s.log.BeginAddress()
	for {
		s.merge.Merge(key, rec.value, acc)
		if !rec.delta() {
			copy(output, acc)
			sess.releaseAcc(acc)
			return OK, nil
		}
		addr = rec.prev()
		// Find the next chain record matching the key.
		var found bool
		addr, rec, found = s.traceBack(key, addr, head)
		if found {
			if rec.tombstone() {
				copy(output, acc)
				sess.releaseAcc(acc)
				return OK, nil
			}
			continue
		}
		if addr == hlog.InvalidAddress || addr < begin {
			copy(output, acc)
			sess.releaseAcc(acc)
			return OK, nil
		}
		// Continue the fold on storage.
		if sess.residentOnly {
			sess.releaseAcc(acc)
			return WouldBlock, nil
		}
		op := sess.newPendingOp(opReadMerge, key, input, output, ctx)
		op.addr = addr
		op.entryAddr = chainHead
		op.acc = acc
		sess.issueIO(op)
		return Pending, nil
	}
}

// ---------------------------------------------------------------------------
// Upsert (Algorithm 3)
// ---------------------------------------------------------------------------

// Upsert blindly replaces the value for key (inserting if absent).
func (sess *Session) Upsert(key, value []byte) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	if len(key) == 0 {
		return Err, errKeyEmpty
	}
	sess.opStart()
	sess.stat.upserts.Add(1)
	if err := sess.s.checkWritable(); err != nil {
		return Err, err
	}
	return sess.upsertInternal(key, value, hashKey(key))
}

// upsertInternal is Upsert past the bookkeeping and writability gate;
// ExecBatch re-enters it when a planned batch append loses its CAS.
func (sess *Session) upsertInternal(key, value []byte, h uint64) (Status, error) {
	s := sess.s
	for {
		entry, raw := s.idx.FindOrCreateEntry(h)
		chainHead, _, cached, stale := s.splitProbe(raw)
		if stale {
			continue
		}
		if !cached && chainHead != 0 && chainHead < s.log.BeginAddress() {
			entry.CompareAndDelete(raw)
			continue
		}
		// In-place only in the mutable region (Table 1): trace no lower
		// than the read-only offset.
		ro := s.log.ReadOnlyAddress()
		laddr, rec, found := s.traceBack(key, chainHead, maxAddr(ro, s.log.HeadAddress()))
		// In-place only when the entry does not point into the read cache:
		// updating behind a cached copy would leave readers on the stale
		// cached value. (A cached entry with the key also in the mutable
		// region cannot actually happen — the write that put it there would
		// have republished the entry — but the append path is the safe one.)
		if found && !cached && !rec.tombstone() && !rec.delta() && !rec.sealed() {
			if debugAssert() && laddr < s.log.SafeReadOnlyAddress() {
				panic("in-place upsert below safeRO")
			}
			if s.ops.ConcurrentWriter(key, rec.value, value) {
				sess.stat.inPlace.Add(1)
				return OK, nil
			}
			// The writer declined (value must grow): seal the record so
			// no later in-place write races with the RCU that follows.
			s.seal(laddr)
		}
		// Otherwise append a new record at the tail (RCU / insert). The
		// CAS expects the raw probed entry (which may be a cached copy —
		// publishing over it is exactly how writes invalidate the cache),
		// while the persisted prev is always the hlog chain head.
		_, st, err := sess.appendRecord(h, key, raw, chainHead, hlog.InvalidAddress, 0, len(value), func(dst record) {
			s.ops.SingleWriter(key, dst.value, value)
		})
		if err != nil {
			return Err, err
		}
		if st == statusRetry {
			continue
		}
		if found {
			sess.stat.rcuCopies.Add(1)
			s.setOverwritten(laddr)
		}
		return OK, nil
	}
}

// ---------------------------------------------------------------------------
// RMW (Algorithm 4)
// ---------------------------------------------------------------------------

// RMW atomically updates key's value from its current value and input,
// using the InitialUpdater / InPlaceUpdater / CopyUpdater functions. On a
// storage miss or a fuzzy-region hit it returns Pending.
func (sess *Session) RMW(key, input []byte, ctx any) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	if len(key) == 0 {
		return Err, errKeyEmpty
	}
	sess.opStart()
	sess.stat.rmws.Add(1)
	return sess.rmwInternal(key, input, ctx, hashKey(key))
}

// rmwInternal is the retryable core of RMW; CompletePending re-enters it
// for fuzzy deferrals. The writability gate sits here rather than in RMW
// so fuzzy deferrals stop re-queueing once the store is read-only: with a
// poisoned tail the safe read-only offset can never advance, and an
// ungated deferral would retry forever.
func (sess *Session) rmwInternal(key, input []byte, ctx any, h uint64) (Status, error) {
	s := sess.s
	if err := s.checkWritable(); err != nil {
		return Err, err
	}

	for {
		entry, raw := s.idx.FindOrCreateEntry(h)
		if raw != hlog.InvalidAddress && raw >= s.log.ReadOnlyAddress() && raw >= s.log.BeginAddress() && !isCacheAddr(raw) {
			// The chain head is mutable and live and, if it holds key
			// unflagged, updates in place with no walk; anything else, a
			// head below a truncation included, takes the walk.
			if v, ok := s.headMatch(key, raw, flagInvalid|flagTombstone|flagDelta|flagSealed); ok {
				if debugAssert() {
					s.assertInPlaceRMW(raw)
				}
				if s.ops.InPlaceUpdater(key, v, input) {
					sess.stat.inPlace.Add(1)
					return OK, nil
				}
			}
		}
		chainHead, crec, cached, stale := s.splitProbe(raw)
		if stale {
			continue
		}
		if !cached && chainHead != 0 && chainHead < s.log.BeginAddress() {
			entry.CompareAndDelete(raw)
			continue
		}
		if cached && !crec.invalid() && bytes.Equal(crec.key, key) {
			// The cached copy is the key's newest version (any newer write
			// would have republished the entry off the cache): copy-update
			// from it directly, skipping the device read entirely.
			st, err := sess.rmwCreate(h, key, input, raw, chainHead, raw, crec, true)
			if err != nil {
				return Err, err
			}
			if st == statusRetry {
				continue
			}
			return OK, nil
		}
		head := s.log.HeadAddress()
		laddr, rec, found := s.traceBack(key, chainHead, head)

		switch {
		case found && rec.tombstone():
			// Key was deleted: re-insert with the initial value.
			st, err := sess.rmwCreate(h, key, input, raw, chainHead, hlog.InvalidAddress, record{}, false)
			if err != nil {
				return Err, err
			}
			if st == statusRetry {
				continue
			}
			return OK, nil

		case laddr == hlog.InvalidAddress:
			// Key absent: insert the initial value.
			st, err := sess.rmwCreate(h, key, input, raw, chainHead, hlog.InvalidAddress, record{}, false)
			if err != nil {
				return Err, err
			}
			if st == statusRetry {
				continue
			}
			return OK, nil

		case s.merge != nil && (!found || rec.delta()):
			// A CRDT delta chain pending reconciliation, or a chain that
			// continues on storage: a delta needs no read, so appending
			// one keeps RMW latch-free (§6.3). Reads reconcile it with
			// whatever lies below.
			st, err := sess.rmwAppendDelta(h, key, input, raw, chainHead)
			if err != nil {
				return Err, err
			}
			if st == statusRetry {
				continue
			}
			return OK, nil

		case found:
			ro := s.log.ReadOnlyAddress()
			sro := s.log.SafeReadOnlyAddress()
			switch {
			case laddr >= ro && !rec.sealed():
				// Mutable region: update in place (Table 2).
				if debugAssert() {
					s.assertInPlaceRMW(laddr)
				}
				if s.ops.InPlaceUpdater(key, rec.value, input) {
					sess.stat.inPlace.Add(1)
					return OK, nil
				}
				// The updater declined (value must grow): seal the
				// record and copy-update from it.
				s.seal(laddr)
				st, err := sess.rmwCreate(h, key, input, raw, chainHead, laddr, rec, true)
				if err != nil {
					return Err, err
				}
				if st == statusRetry {
					continue
				}
				s.setOverwritten(laddr)
				return OK, nil

			case laddr >= ro: // sealed: must copy-update
				st, err := sess.rmwCreate(h, key, input, raw, chainHead, laddr, rec, true)
				if err != nil {
					return Err, err
				}
				if st == statusRetry {
					continue
				}
				return OK, nil
			case laddr >= sro:
				// Fuzzy region (§6.2-6.3).
				if s.merge != nil {
					st, err := sess.rmwAppendDelta(h, key, input, raw, chainHead)
					if err != nil {
						return Err, err
					}
					if st == statusRetry {
						continue
					}
					return OK, nil
				}
				if sess.residentOnly {
					return WouldBlock, nil
				}
				if !sess.retrying {
					sess.stat.fuzzyRMWs.Add(1) // once per RMW, not per retry
				}
				op := sess.newPendingOp(opRMWRetry, key, input, nil, ctx)
				sess.retries = append(sess.retries, op)
				return Pending, nil
			default:
				// Safe read-only region: copy-update to the tail.
				st, err := sess.rmwCreate(h, key, input, raw, chainHead, laddr, rec, true)
				if err != nil {
					return Err, err
				}
				if st == statusRetry {
					continue
				}
				s.setOverwritten(laddr)
				return OK, nil
			}

		default:
			// The chain continues on storage: fetch asynchronously. The
			// walk verified everything above laddr up to the chain head,
			// so the publish re-checks only what appears above that head.
			if sess.residentOnly {
				return WouldBlock, nil
			}
			op := sess.newPendingOp(opRMW, key, input, nil, ctx)
			op.addr = laddr
			op.entryAddr = raw
			op.stop = chainHead
			sess.issueIO(op)
			return Pending, nil
		}
	}
}

// assertInPlaceRMW panics if an in-place RMW targets a record whose page
// flush was already issued: the update could miss the durable image.
func (s *Store) assertInPlaceRMW(laddr hlog.Address) {
	if fi := s.log.FlushIssuedAddress(); laddr < fi {
		panic(fmt.Sprintf("in-place RMW at %#x below flush-issued %#x (ro=%#x sro=%#x)",
			laddr, fi, s.log.ReadOnlyAddress(), s.log.SafeReadOnlyAddress()))
	}
}

type internalStatus int

const (
	statusDone internalStatus = iota
	statusRetry
	statusPendingIO
)

// appendRecord allocates and publishes a record at the tail: write the
// record, fill the value via fill, CAS the index entry from expect.
// Returns statusRetry (with the record invalidated) on a lost CAS.
//
// expect is the raw probed entry value — possibly a cache-tagged address
// — and is only the CAS expectation; prev is the hlog chain head written
// into the new record's header. They differ exactly when the probed entry
// pointed at a cached copy: the CAS over the tagged address is how writes
// invalidate the read cache (RCU), while the persisted prev keeps the
// durable chain free of volatile cache addresses — no hlog record ever
// carries a tagged prev.
//
// Allocate may refresh the session's epoch while waiting for buffer
// maintenance, which can let the log (or the read cache) evict pages.
// srcAddr, if nonzero, is an address whose record fill reads from
// (copy-updates); if its memory is reclaimed while Allocate waits the
// whole operation must be retried from the index.
func (sess *Session) appendRecord(h uint64, key []byte, expect, prev, srcAddr hlog.Address, flags uint64, valueLen int, fill func(dst record)) (hlog.Address, internalStatus, error) {
	s := sess.s
	if debugAssert() && isCacheAddr(prev) {
		panic("appendRecord: cache-tagged prev")
	}
	size := recordSize(len(key), valueLen)
	newAddr, err := s.log.Allocate(size, sess.g)
	if err != nil {
		return 0, statusDone, fmt.Errorf("faster: allocate record: %w", err)
	}
	if srcAddr != hlog.InvalidAddress && s.sourceEvicted(srcAddr) {
		// The copy source was evicted while Allocate waited: abandon the
		// slot and retry from the index.
		s.abandonSlot(newAddr, key, valueLen)
		return 0, statusRetry, nil
	}
	dst := writeRecord(s.log.Slice(newAddr)[:size], prev, flags, key, valueLen)
	fill(dst)
	e, cur := s.idx.FindOrCreateEntry(h)
	if mutationsEnabled && mutCacheInval() && isCacheAddr(expect) && cur == expect &&
		s.rc.redirectPrev(expect, prev, newAddr) {
		// Seeded bug (skip-cache-invalidate): the new record is linked
		// into the chain BEHIND the cached copy instead of republishing
		// the entry over it — readers of the cached key keep being served
		// the stale cached value after this write acknowledges.
		sess.stat.appends.Add(1)
		return newAddr, statusDone, nil
	}
	if cur != expect || !e.CompareAndSwapAddress(expect, newAddr) {
		s.setInvalid(newAddr)
		sess.stat.failedCAS.Add(1)
		return 0, statusRetry, nil
	}
	if isCacheAddr(expect) {
		s.noteCacheInvalidation()
	}
	sess.stat.appends.Add(1)
	return newAddr, statusDone, nil
}

// sourceEvicted reports whether the memory behind a copy-update source
// address may have been reclaimed: hlog addresses below the head, cache
// addresses below the end of the cache's last restore.
func (s *Store) sourceEvicted(srcAddr hlog.Address) bool {
	if isCacheAddr(srcAddr) {
		return srcAddr&^cacheAddrBit < s.rc.evicted.Load()
	}
	return srcAddr < s.log.HeadAddress()
}

// abandonSlot lays a freshly allocated, never-published slot out as a
// full invalid record. A bare invalid flag is not enough: on an
// otherwise-zero slot the key length stays 0, which log scans
// (compaction's scan, checkpoint replay, Store.Scan) read as
// end-of-page padding — silently dropping every record after it in the
// page, and with it any key whose newest version sat there. Writing the
// full sized layout keeps the slot skippable but walkable. The slot is
// unreachable (never published to the index) and the caller holds its
// epoch, so the read-only offset cannot pass it mid-write; plain stores
// suffice.
func (s *Store) abandonSlot(addr hlog.Address, key []byte, valueLen int) {
	size := recordSize(len(key), valueLen)
	writeRecord(s.log.Slice(addr)[:size], 0, flagInvalid, key, valueLen)
}

// rmwCreate appends the updated record for an RMW: either the initial
// value (absent/tombstoned key) or a copy-update of old. expect is the
// raw probed entry (the CAS expectation), prev the hlog chain head.
func (sess *Session) rmwCreate(h uint64, key, input []byte, expect, prev, srcAddr hlog.Address, old record, haveOld bool) (internalStatus, error) {
	s := sess.s
	var valueLen int
	if haveOld {
		valueLen = s.ops.CopyValueLen(key, old.value, input)
	} else {
		valueLen = s.ops.InitialValueLen(key, input)
	}
	_, st, err := sess.appendRecord(h, key, expect, prev, srcAddr, 0, valueLen, func(dst record) {
		if haveOld {
			s.ops.CopyUpdater(key, old.value, dst.value, input)
		} else {
			s.ops.InitialUpdater(key, dst.value, input)
		}
	})
	if haveOld && st == statusDone && err == nil {
		sess.stat.rcuCopies.Add(1)
	}
	return st, err
}

// rmwAppendDelta appends a CRDT delta record: the update applied to an
// empty initial value, flagged so reads reconcile the chain (§6.3).
func (sess *Session) rmwAppendDelta(h uint64, key, input []byte, expect, prev hlog.Address) (internalStatus, error) {
	s := sess.s
	valueLen := s.ops.InitialValueLen(key, input)
	_, st, err := sess.appendRecord(h, key, expect, prev, hlog.InvalidAddress, flagDelta, valueLen, func(dst record) {
		s.ops.InitialUpdater(key, dst.value, input)
	})
	if st == statusDone && err == nil {
		sess.stat.deltaRecords.Add(1)
	}
	return st, err
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

// Delete removes key from the store. In the mutable region the record is
// tombstoned in place; otherwise a tombstone record is appended (§5.3).
// A singleton in-memory chain releases its index entry directly (§4).
func (sess *Session) Delete(key []byte) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	if len(key) == 0 {
		return Err, errKeyEmpty
	}
	sess.opStart()
	sess.stat.deletes.Add(1)
	if err := sess.s.checkWritable(); err != nil {
		return Err, err
	}
	return sess.deleteInternal(key, hashKey(key))
}

// deleteInternal is Delete past the bookkeeping and writability gate.
func (sess *Session) deleteInternal(key []byte, h uint64) (Status, error) {
	s := sess.s
	for {
		entry, raw, ok := s.idx.FindEntry(h)
		if !ok {
			return NotFound, nil
		}
		chainHead, crec, cached, stale := s.splitProbe(raw)
		if stale {
			continue
		}
		cachedKey := cached && !crec.invalid() && bytes.Equal(crec.key, key)
		if !cached && chainHead < s.log.BeginAddress() {
			entry.CompareAndDelete(raw)
			return NotFound, nil
		}
		head := s.log.HeadAddress()
		laddr, rec, found := s.traceBack(key, chainHead, head)
		if found && rec.tombstone() {
			return NotFound, nil
		}
		if found && !rec.delta() && laddr >= s.log.ReadOnlyAddress() {
			if laddr == chainHead && rec.prev() == hlog.InvalidAddress {
				// Singleton chain wholly in memory: free the index slot
				// so it can be reused (§4). The record becomes garbage
				// (and so does any cached copy — unreachable, skipped at
				// eviction since the entry no longer points to it).
				if entry.CompareAndDelete(raw) {
					if cached {
						s.noteCacheInvalidation()
					}
					s.setInvalid(laddr)
					return OK, nil
				}
				continue
			}
			// Tombstone in place.
			p := s.headerPtr(laddr)
			for {
				oldH := atomic.LoadUint64(p)
				if oldH&flagTombstone != 0 {
					return NotFound, nil
				}
				if atomic.CompareAndSwapUint64(p, oldH, oldH|flagTombstone) {
					if cachedKey {
						// The entry still points at a cached copy of this
						// key: drop it back to the (now tombstoned) hlog
						// chain so readers see the delete. A failed CAS
						// means a newer write already moved the entry.
						if entry.CompareAndSwapAddress(raw, chainHead) {
							s.noteCacheInvalidation()
						}
					}
					return OK, nil
				}
			}
		}
		if !found && laddr == hlog.InvalidAddress {
			if cachedKey && !crec.tombstone() {
				// The underlying chain was truncated away but the cached
				// copy still serves this key: the delete must supersede
				// it with a tombstone, not report NotFound, or concurrent
				// cached reads would contradict the acknowledged delete.
				_, st, err := sess.appendRecord(h, key, raw, hlog.InvalidAddress, hlog.InvalidAddress, flagTombstone, 0, func(record) {})
				if err != nil {
					return Err, err
				}
				if st == statusRetry {
					continue
				}
				return OK, nil
			}
			return NotFound, nil
		}
		// Record is read-only, on disk, or a delta chain: append a
		// tombstone record.
		_, st, err := sess.appendRecord(h, key, raw, chainHead, hlog.InvalidAddress, flagTombstone, 0, func(record) {})
		if err != nil {
			return Err, err
		}
		if st == statusRetry {
			continue
		}
		return OK, nil
	}
}

func maxAddr(a, b hlog.Address) hlog.Address {
	if a > b {
		return a
	}
	return b
}
