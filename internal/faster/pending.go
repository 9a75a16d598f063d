package faster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/hlog"
	"repro/internal/retry"
)

// Operations go pending for two reasons (§5.3, §6.3): the record they need
// lives on storage (Read, RMW), or an RMW hit the fuzzy region and must be
// retried after the safe read-only offset catches up. Each pending
// operation carries a context that resumes it; completions are queued per
// session and drained by CompletePending, exactly as in §2.5.

// opKind identifies how a pending operation resumes.
type opKind int

const (
	opRead      opKind = iota // storage read, deliver value
	opReadMerge               // CRDT reconcile continuing down the chain
	opRMW                     // storage read, then copy-update at the tail
	opRMWRetry                // fuzzy-region deferral, re-execute
	opRMWVerify               // verify no newer version in an evicted span
	opCompact                 // compaction span check (compact.go)
)

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opReadMerge:
		return "read-merge"
	case opRMW:
		return "rmw"
	case opRMWRetry:
		return "rmw-retry"
	case opRMWVerify:
		return "rmw-verify"
	case opCompact:
		return "compact"
	default:
		return "unknown"
	}
}

// PendingOp is the continuation context of an asynchronous operation.
type PendingOp struct {
	kind   opKind
	key    []byte // owned copy
	input  []byte // owned copy
	output []byte // caller-provided output buffer (reads)
	ctx    any

	addr      hlog.Address // record currently being fetched
	entryAddr hlog.Address // chain head observed when the RMW issued
	acc       []byte       // CRDT merge accumulator
	buf       []byte       // completed read buffer
	err       error

	// RMW span verification (see publishFetched): the fetched old
	// record's buffer, the span floor, and the chain head to republish
	// against once the span is verified clean.
	fetchedBuf []byte
	verifyStop hlog.Address
	verifyCur  hlog.Address

	// compactVal is the value a compaction descent (opCompact) will copy
	// forward if its span proves clean: the op's own copy, since the
	// Compact driver reuses its page arena while the descent runs.
	compactVal []byte

	issuedNs   int64 // set by issueIO; feeds the pending-latency histogram
	deadlineNs int64 // completion deadline (0 = none): its io-pool request's
}

// expired reports whether op must complete with ErrOpDeadline instead of
// continuing: its deadline has passed, or the io-pool already delivered
// its shed. The second test reads no clock: the worker sheds and
// continues on one goroutine, so once a shed is out no later
// continuation of the op can apply, whatever a later clock read says.
func (op *PendingOp) expired() bool {
	if op.deadlineNs == 0 {
		return false
	}
	if r, ok := op.ctx.(*ioRequest); ok && r.delivered {
		return true
	}
	return time.Now().UnixNano() >= op.deadlineNs
}

// Result reports the completion of a pending operation.
type Result struct {
	// Kind is "read", "read-merge", "rmw", "rmw-retry" or "compact".
	Kind string
	// Key is the operation's key (the session's owned copy).
	Key []byte
	// Input is the session's owned copy of the operation's input. RMW
	// updaters that feed status back through the input (the counter
	// overflow flag) write into this copy on the pending path, so callers
	// must inspect it here, not their original buffer. Valid until the
	// session reuses the op; copy to retain.
	Input []byte
	// Output is the caller's output buffer, now filled (reads).
	Output []byte
	// Status is the final status: OK, NotFound or Err.
	Status Status
	// ValueLen is the record's value length for completed reads.
	ValueLen int
	// Err is non-nil when Status is Err.
	Err error
	// Ctx is the caller's context value from the original call.
	Ctx any
}

// completionQueue is a mutex-guarded queue filled by device callbacks
// (arbitrary goroutines) and drained by the session goroutine. Every push
// signals wake, so the session goroutine — a CompletePending(true) caller
// or an io-worker — sleeps until a completion exists instead of polling
// for one. The sub-sessions of a ShardedSession share one waker.
type completionQueue struct {
	mu   sync.Mutex
	ops  []*PendingOp
	wake *waker
}

func (q *completionQueue) push(op *PendingOp) {
	q.mu.Lock()
	q.ops = append(q.ops, op)
	q.mu.Unlock()
	q.wake.signal()
}

// drain moves the queued completions into buf (the caller's scratch, so
// neither side allocates per completion) and returns it.
func (q *completionQueue) drain(buf []*PendingOp) []*PendingOp {
	q.mu.Lock()
	buf = append(buf[:0], q.ops...)
	clear(q.ops)
	q.ops = q.ops[:0]
	q.mu.Unlock()
	return buf
}

// waker is the wake-channel protocol between completion producers and the
// one goroutine that consumes them. ch has capacity 1 and signal never
// blocks: a push between the consumer's drain and its wait leaves a token
// behind, so no wakeup is lost, and a token left over from a push that was
// already drained costs one empty pass. The consumer always runs a pass
// before it waits.
type waker struct {
	ch    chan struct{}
	timer *time.Timer // the consumer's reusable wait bound
}

func newWaker() *waker { return &waker{ch: make(chan struct{}, 1)} }

func (w *waker) signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// wait blocks until a signal or until wakeNs (unix nanoseconds; 0 = no
// bound). An io-worker also passes its two other event sources, the
// admission queue and the pool's stop channel; a session waiting for its
// own operations passes nil for both. Consumer side only.
func (w *waker) wait(wakeNs int64, reqs <-chan *ioRequest, stop <-chan struct{}) (r *ioRequest, stopped bool) {
	var tick <-chan time.Time
	if wakeNs != 0 {
		d := time.Duration(wakeNs - time.Now().UnixNano())
		if d <= 0 {
			return nil, false
		}
		if w.timer == nil {
			w.timer = time.NewTimer(d)
		} else {
			w.timer.Reset(d)
		}
		tick = w.timer.C
	}
	select {
	case <-tick:
		return nil, false
	case <-w.ch:
	case r = <-reqs:
	case <-stop:
		stopped = true
	}
	if tick != nil {
		stopTimer(w.timer)
	}
	return r, stopped
}

// stopTimer stops t and drops a tick that fired before the stop, leaving
// the timer ready for Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// maintenanceTick bounds a wait that has fuzzy-region deferrals
// outstanding: those resolve when the safe read-only offset republishes,
// which no completion announces, so the waiter re-runs them on this tick.
// A wait with only device I/O outstanding carries no tick at all.
const maintenanceTick = 100 * time.Microsecond

// waitBound is the instant a completion wait must end by: the caller's
// deadline (0 = none), pulled in to the next maintenance tick while
// deferrals are outstanding.
func waitBound(deadlineNs int64, deferrals bool) int64 {
	if deferrals {
		if tick := time.Now().Add(maintenanceTick).UnixNano(); deadlineNs == 0 || tick < deadlineNs {
			return tick
		}
	}
	return deadlineNs
}

// await sleeps the session goroutine in waker.wait. The session is parked
// for the duration, so a sleeper pins no epoch: flushes, evictions and the
// read-only shifts its own deferrals wait for keep moving (Park also runs
// the trigger actions this session was holding back).
func (sess *Session) await(wakeNs int64, reqs <-chan *ioRequest, stop <-chan struct{}) (*ioRequest, bool) {
	sess.g.Park()
	defer sess.g.Unpark()
	return sess.completed.wake.wait(wakeNs, reqs, stop)
}

// newPendingOp builds a continuation with owned copies of key and input,
// recycling a struct from the session's free list when one is available.
// The key copy is always fresh: its ownership transfers to the Result
// when the op completes (callers may hold Result.Key indefinitely).
func (sess *Session) newPendingOp(kind opKind, key, input, output []byte, ctx any) *PendingOp {
	var op *PendingOp
	if n := len(sess.opFree); n > 0 {
		op = sess.opFree[n-1]
		sess.opFree[n-1] = nil
		sess.opFree = sess.opFree[:n-1]
		in := op.input[:0]
		*op = PendingOp{input: in}
	} else {
		op = &PendingOp{}
	}
	op.kind, op.output, op.ctx = kind, output, ctx
	if r, ok := ctx.(*ioRequest); ok {
		op.deadlineNs = r.deadlineNs // only io-pool requests carry one
	}
	op.key = append([]byte(nil), key...)
	if input != nil {
		op.input = append(op.input[:0], input...)
	} else {
		op.input = nil
	}
	return op
}

// recycleOp returns a finished op to the session free list. The caller
// must have built the op's Result already: the key buffer stays with the
// Result, the accumulator and fetch buffers return to the scratch pools.
func (sess *Session) recycleOp(op *PendingOp) {
	sess.releaseAcc(op.acc)
	if op.buf != nil {
		sess.putIOBuf(op.buf)
	}
	in := op.input[:0]
	*op = PendingOp{input: in}
	if len(sess.opFree) < 32 {
		sess.opFree = append(sess.opFree, op)
	}
}

// getIOBuf returns a fetch buffer of length n from the session pool.
func (sess *Session) getIOBuf(n int) []byte {
	if m := len(sess.ioBufs); m > 0 {
		buf := sess.ioBufs[m-1]
		sess.ioBufs[m-1] = nil
		sess.ioBufs = sess.ioBufs[:m-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]byte, n)
}

func (sess *Session) putIOBuf(buf []byte) {
	if len(sess.ioBufs) < 16 {
		sess.ioBufs = append(sess.ioBufs, buf[:0])
	}
}

// ioDone pairs an issueIO: the op's current I/O round has been consumed
// by the session goroutine (the op may re-issue immediately).
func (sess *Session) ioDone() {
	sess.inFlight--
	sess.s.mx.pendingDepth.Dec()
}

// ErrOpDeadline marks a pending operation that shed because its
// io-pool deadline expired before it completed. A shed operation never
// applies: a continuation past its deadline stops before any append or
// CAS (PendingOp.expired). It wraps
// context.DeadlineExceeded, and deliberately bypasses both the retry
// budget and the health ladder: a deadline is caller impatience, not
// device degradation.
var ErrOpDeadline = fmt.Errorf("faster: pending operation deadline expired: %w", context.DeadlineExceeded)

// readRetrying reads buf at addr, retrying transient failures under the
// store's read policy with jittered backoff. done receives nil on success
// or the final error wrapped as a retry.ExhaustedError (errors.Is on the
// device cause still works). deadlineNs, when nonzero, bounds the whole
// retry chain: an expired deadline fails fast with ErrOpDeadline instead
// of scheduling another backoff (and never raises health). The retry
// chain is serial — one outstanding read at a time.
func (s *Store) readRetrying(addr hlog.Address, buf []byte, deadlineNs int64, done func(error)) {
	if deadlineNs > 0 && time.Now().UnixNano() >= deadlineNs {
		done(ErrOpDeadline)
		return
	}
	s.readAttempt(addr, buf, deadlineNs, 0, done)
}

// readAttempt issues one device read of the chain; failures counts the
// attempts that failed before it. The success path costs one closure.
func (s *Store) readAttempt(addr hlog.Address, buf []byte, deadlineNs int64, failures int, done func(error)) {
	s.log.ReadAsync(addr, buf, func(err error) {
		if err == nil {
			done(nil)
			return
		}
		if addr < s.log.BeginAddress() {
			// The fetch raced a truncation: the record is provably dead
			// (it sat below a begin address some caller advanced past).
			// Deliver the raw error without burning retry budget or
			// touching the health ladder — the continuation resolves it
			// as NotFound, not as device degradation.
			done(err)
			return
		}
		failures := failures + 1
		if !s.cfg.ReadRetry.Budget(s.classify, err, failures) {
			done(retry.Exhausted(s.classify, err, failures))
			return
		}
		delay := s.cfg.ReadRetry.Delay(failures)
		if deadlineNs > 0 && time.Now().Add(delay).UnixNano() >= deadlineNs {
			// The backoff would sleep past the deadline: shed now. No
			// Degraded escalation — the device fault already consumed
			// retry budget, and a deadline shed is explicit back-pressure,
			// not a new health signal.
			done(ErrOpDeadline)
			return
		}
		s.mx.pendingRetries.Inc()
		s.raiseHealth(Degraded, err)
		time.AfterFunc(delay, func() { s.readAttempt(addr, buf, deadlineNs, failures, done) })
	})
}

// firstReadBytes is the span issueIO reads for a cold record: enough for
// any record of a few KiB in one device call, so a miss costs one read.
// Longer records take a second read of their exact size.
const firstReadBytes = 4 << 10

// issueIO starts the asynchronous fetch of the record at op.addr: one read
// of the span [addr, addr+firstReadBytes), clamped to addr's page end (the
// device holds every page below the head whole, hlog.RecoverTo included),
// then — only for a record longer than the span — a second read of the
// whole record. The final callback parks the op on the session's
// completion queue; no store state is touched from the I/O callback
// goroutine beyond the health escalation for permanent device loss.
func (sess *Session) issueIO(op *PendingOp) {
	sess.inFlight++
	sess.s.mx.pendingDepth.Inc()
	sess.stat.pendingIOs.Add(1)
	op.issuedNs = time.Now().UnixNano()
	s := sess.s
	fail := func(err error) {
		op.err = err
		// A read below a moving begin address is a truncation race, not a
		// device failure, and a deadline shed is explicit back-pressure;
		// only genuine losses feed the health escalation.
		if op.addr >= s.log.BeginAddress() && !errors.Is(err, ErrOpDeadline) {
			s.noteReadFailure(err)
		}
		sess.completed.push(op)
	}
	// The buffer is taken on the issuing (session) goroutine — the device
	// callback below runs elsewhere and must not touch the session's pool.
	pageEnd := (op.addr | (s.log.PageSize() - 1)) + 1
	buf := sess.getIOBuf(int(min(pageEnd, op.addr+firstReadBytes) - op.addr))
	s.readRetrying(op.addr, buf, op.deadlineNs, func(err error) {
		if err != nil {
			fail(err)
			return
		}
		size := int(probeSize(buf))
		switch {
		case size == 0 || size > maxRecordBytes:
			op.err = errCorruptRecord
		case size <= len(buf):
			op.buf = buf[:size]
		default:
			if cap(buf) >= size {
				buf = buf[:size]
			} else {
				buf = make([]byte, size)
			}
			s.readRetrying(op.addr, buf, op.deadlineNs, func(err error) {
				if err != nil {
					fail(err)
					return
				}
				op.buf = buf
				sess.completed.push(op)
			})
			return
		}
		sess.completed.push(op)
	})
}

// ErrPendingTimeout is returned by CompletePendingTimeout when outstanding
// operations did not finish within the deadline. The operations remain
// pending and a later CompletePending call can still drain them.
var ErrPendingTimeout = errors.New("faster: pending operations did not complete within the deadline")

// CompletePending processes the session's completed asynchronous I/Os and
// fuzzy-region retries, returning one Result per finished user operation.
// With wait set it blocks (refreshing the epoch) until every outstanding
// operation has finished.
func (sess *Session) CompletePending(wait bool) []Result {
	results, _ := sess.completePending(wait, time.Time{})
	return results
}

// CompletePendingTimeout is CompletePending(true) with a deadline: it
// returns ErrPendingTimeout (plus the results drained so far) if
// outstanding operations are still unfinished when d elapses. This is the
// bound that keeps a caller from hanging when the device degrades faster
// than the health machine can classify it.
func (sess *Session) CompletePendingTimeout(d time.Duration) ([]Result, error) {
	return sess.completePending(true, time.Now().Add(d))
}

func (sess *Session) completePending(wait bool, deadline time.Time) ([]Result, error) {
	var results []Result
	var deadlineNs int64
	if !deadline.IsZero() {
		deadlineNs = deadline.UnixNano()
	}
	idle := 0
	for {
		n := len(results)
		results = sess.completePass(results)
		if !wait {
			return results, nil
		}
		if sess.inFlight == 0 && len(sess.retries) == 0 {
			return results, nil
		}
		if len(results) > n {
			idle = 0
			continue
		}
		if deadlineNs != 0 && time.Now().UnixNano() > deadlineNs {
			return results, fmt.Errorf("%w (%d in flight, %d deferred)",
				ErrPendingTimeout, sess.inFlight, len(sess.retries))
		}
		// Nothing moved. First let the trigger actions this session was
		// holding back run (a deferral is often waiting on this very
		// session's refresh) and look again; after that, sleep until a
		// device callback signals the completion queue.
		if idle++; idle == 1 {
			sess.g.Refresh()
			sess.s.em.Drain()
			continue
		}
		sess.await(waitBound(deadlineNs, len(sess.retries) > 0), nil, nil)
	}
}

// completePass runs one non-blocking round of the pending machinery —
// re-execute the fuzzy deferrals, then continue every op whose I/O has
// landed — appending a Result per finished user operation to results.
func (sess *Session) completePass(results []Result) []Result {
	// Fuzzy deferrals: retry once the safe read-only offset has been
	// republished (any epoch refresh may have advanced it).
	if n := len(sess.retries); n > 0 {
		retries := sess.retries
		sess.retries = nil
		for _, op := range retries {
			st, err := OK, error(nil)
			switch {
			case mutationsEnabled && mutDroppedReenqueue():
				// Seeded bug: the deferral is acknowledged OK without
				// ever re-executing — an applied-but-lost RMW.
			case op.expired():
				// A shed is final: the deferral never re-executes.
				st, err = Err, ErrOpDeadline
			default:
				st, err = sess.rmwInternal(op.key, op.input, op.ctx, hashKey(op.key))
				if st == Pending {
					// Re-queued (still fuzzy, or now on storage) as a
					// fresh op; this one is done with.
					sess.recycleOp(op)
					continue
				}
			}
			results = append(results, Result{
				Kind: op.kind.String(), Key: op.key, Input: op.input,
				Status: st, Err: err, Ctx: op.ctx,
			})
			sess.recycleOp(op)
		}
	}

	sess.drained = sess.completed.drain(sess.drained)
	for i, op := range sess.drained {
		sess.drained[i] = nil
		sess.s.mx.pendingLatency.Observe(time.Duration(time.Now().UnixNano() - op.issuedNs))
		if res, done := sess.continueOp(op); done {
			sess.ioDone()
			results = append(results, res)
			sess.recycleOp(op)
		}
	}
	return results
}

// continueOp resumes a pending operation whose I/O completed. done is
// false when the op re-issued another I/O (following the chain).
func (sess *Session) continueOp(op *PendingOp) (Result, bool) {
	s := sess.s
	fail := func(st Status, err error) (Result, bool) {
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Output: op.output, Status: st, Err: err, Ctx: op.ctx}, true
	}
	if op.expired() {
		// A shed is final: stop before any append or CAS.
		return fail(Err, ErrOpDeadline)
	}
	if op.err != nil {
		if op.addr < s.log.BeginAddress() {
			return sess.resumeTruncated(op)
		}
		return fail(Err, op.err)
	}
	rec, ok := parseRecord(op.buf)
	if !ok {
		if op.addr < s.log.BeginAddress() {
			// A truncated range can read back as zeros rather than an
			// error (file devices only move a watermark); same race.
			return sess.resumeTruncated(op)
		}
		return fail(Err, errCorruptRecord)
	}

	if rec.invalid() || !bytes.Equal(rec.key, op.key) {
		// Not our record: follow the chain further down.
		return sess.followChain(op, rec.prev())
	}

	switch op.kind {
	case opRead:
		if rec.tombstone() {
			return fail(NotFound, nil)
		}
		op.output = sess.outFor(op.output, len(rec.value))
		if rec.delta() && s.merge != nil {
			// The newest on-disk record is a delta: switch to a merge
			// fold from here down.
			op.kind = opReadMerge
			op.acc = sess.acquireAcc(len(op.output))
			return sess.mergeAndDescend(op, rec)
		}
		s.ops.SingleReader(op.key, rec.value, op.input, op.output)
		if s.rc != nil && !isCacheAddr(op.entryAddr) {
			// Cold read completed: copy the record into the read cache so
			// repeat reads of it skip the device. entryAddr is the chain
			// head the read probed; the fill CASes the index entry from it
			// to the cached copy, and silently does nothing if a writer (or
			// a competing fill) moved the entry meanwhile.
			s.rc.fill(sess.g, hashKey(op.key), op.key, rec.value, op.entryAddr)
		}
		res, done := fail(OK, nil)
		res.ValueLen = len(rec.value)
		return res, done

	case opReadMerge:
		if rec.tombstone() {
			copy(op.output, op.acc)
			return fail(OK, nil)
		}
		return sess.mergeAndDescend(op, rec)

	case opRMW:
		return sess.completeRMWAfterFetch(op, rec)

	case opRMWVerify:
		// The span record matched our key (checked above): a newer
		// version exists, so the fetched value is stale.
		return sess.reissueRMW(op)

	case opCompact:
		// A version of the key exists above the cut (even a tombstone
		// supersedes the scanned copy): the candidate is stale, skip it.
		return fail(NotFound, nil)
	}
	return fail(Err, errCorruptRecord)
}

// resumeTruncated re-executes an operation whose storage fetch was
// overtaken by a begin-address truncation. The address it was reading is
// provably reclaimed, so the failure carries no information about the
// key; the op restarts from the index, where post-truncation state
// (including any compaction copy rolled forward to the tail) is visible.
func (sess *Session) resumeTruncated(op *PendingOp) (Result, bool) {
	op.err = nil
	switch op.kind {
	case opRead, opReadMerge:
		// A partial CRDT fold below the truncation point is worthless;
		// restart the read from scratch.
		sess.releaseAcc(op.acc)
		op.acc = nil
		st, err := sess.readInternal(op.key, op.input, op.output, op.ctx, hashKey(op.key))
		if st == Pending {
			sess.ioDone()
			return Result{}, false
		}
		if st == OK && sess.ownOutputs {
			op.output = sess.owned
		}
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Output: op.output, Status: st, Err: err, Ctx: op.ctx}, true
	case opCompact:
		// The span being verified was truncated out from under the
		// descent; re-verify against the current index state.
		return sess.republishCompact(op)
	default: // opRMW, opRMWRetry, opRMWVerify
		return sess.reissueRMW(op)
	}
}

// followChain either issues the next fetch or finishes the op when the
// chain is exhausted.
func (sess *Session) followChain(op *PendingOp, next hlog.Address) (Result, bool) {
	s := sess.s
	if op.kind == opRMWVerify && next <= op.verifyStop {
		// Span verified clean on storage: republish against the head we
		// observed when the verification started.
		return sess.republishVerified(op)
	}
	if op.kind == opCompact && next <= op.verifyStop {
		// The descent reached the scanned record without meeting the key:
		// nothing newer supersedes it. A chain that passes below it (or
		// ends, or drops below begin) skipped it: the entry was released
		// and recreated, so the key died and the copy is not needed.
		if next < op.verifyStop {
			return Result{Kind: op.kind.String(), Key: op.key, Status: NotFound, Ctx: op.ctx}, true
		}
		return sess.republishCompact(op)
	}
	if next != hlog.InvalidAddress && next < s.log.BeginAddress() {
		// The chain descends below the begin address: a truncation (or a
		// compaction) advanced begin mid-descent. If the index entry has
		// moved since the op issued, a copy-forward may have rolled the
		// key's live version to the tail — restart from the index. If the
		// entry is unchanged (or gone), no copy rescued this key, so the
		// truncated tail of the chain is dead and the descent is over.
		if _, cur, ok := s.idx.FindEntry(hashKey(op.key)); ok && cur != op.entryAddr {
			return sess.resumeTruncated(op)
		}
		return sess.chainExhausted(op)
	}
	if next == hlog.InvalidAddress {
		return sess.chainExhausted(op)
	}
	if s.log.InMemory(next) {
		// Chains point strictly downward, so a fetched record's
		// predecessor cannot re-enter memory; begin-address truncation
		// is the only way this could mislead, handled above.
		return sess.chainExhausted(op)
	}
	op.addr = next
	if op.buf != nil && (op.fetchedBuf == nil || &op.buf[0] != &op.fetchedBuf[0]) {
		sess.putIOBuf(op.buf)
	}
	op.buf = nil
	sess.ioDone()
	sess.issueIO(op)
	return Result{}, false
}

// republishVerified retries a publish whose candidate span proved free of
// newer versions of the op's key.
func (sess *Session) republishVerified(op *PendingOp) (Result, bool) {
	finish := func(st Status, err error) (Result, bool) {
		return Result{Kind: "rmw", Key: op.key, Input: op.input,
			Status: st, Err: err, Ctx: op.ctx}, true
	}
	rec, ok := parseRecord(op.fetchedBuf)
	if !ok {
		return finish(Err, errCorruptRecord)
	}
	op.kind = opRMW
	st, err := sess.publishFetched(hashKey(op.key), op, rec, op.verifyCur)
	switch st {
	case statusDone:
		return finish(OK, err)
	case statusPendingIO:
		sess.ioDone()
		return Result{}, false
	default:
		return sess.reissueRMW(op)
	}
}

// chainExhausted finishes an op whose key turned out not to exist.
func (sess *Session) chainExhausted(op *PendingOp) (Result, bool) {
	if op.kind == opRMWVerify {
		// The whole chain below the span floor ended: span clean.
		return sess.republishVerified(op)
	}
	switch op.kind {
	case opRead:
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Output: op.output, Status: NotFound, Ctx: op.ctx}, true
	case opReadMerge:
		copy(op.output, op.acc)
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Output: op.output, Status: OK, Ctx: op.ctx}, true
	case opRMW:
		// Key absent below the fetch point: CREATE_RECORD with the
		// initial value (Alg 4), through the same verified-publish path
		// as fetched values — the chain head may have moved during the
		// descent, and only a new version of THIS key should force a
		// restart. A synthesized tombstone stands in for the (absent)
		// old record, making the publish take the initial-value branch.
		h := hashKey(op.key)
		tomb := make([]byte, recordSize(len(op.key), 0))
		writeRecord(tomb, 0, flagTombstone, op.key, 0)
		op.fetchedBuf = tomb
		rec, _ := parseRecord(tomb)
		st, err := sess.publishFetched(h, op, rec, op.entryAddr)
		switch st {
		case statusDone:
			return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
				Status: OK, Err: err, Ctx: op.ctx}, true
		case statusPendingIO:
			sess.ioDone() // the verify fetch re-incremented
			return Result{}, false
		default:
			return sess.reissueRMW(op)
		}
	}
	return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
		Status: Err, Err: errCorruptRecord, Ctx: op.ctx}, true
}

// mergeAndDescend folds rec into the accumulator and continues down the
// chain until the base (non-delta) record.
func (sess *Session) mergeAndDescend(op *PendingOp, rec record) (Result, bool) {
	s := sess.s
	s.merge.Merge(op.key, rec.value, op.acc)
	if !rec.delta() {
		copy(op.output, op.acc)
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Output: op.output, Status: OK, Ctx: op.ctx}, true
	}
	return sess.followChain(op, rec.prev())
}

// completeRMWAfterFetch finishes an RMW whose old value arrived from
// storage. There is deliberately no "chain head moved, refetch" check
// here: the publish path verifies any records appended above the
// fetch-time head (in memory, or via an on-disk span check) and restarts
// only when a newer version of the op's key actually exists — a naive
// refetch rule live-locks against a tag-colliding hot key whose appends
// always outpace this op's two-I/O descent.
func (sess *Session) completeRMWAfterFetch(op *PendingOp, rec record) (Result, bool) {
	finish := func(st Status, err error) (Result, bool) {
		return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
			Status: st, Err: err, Ctx: op.ctx}, true
	}
	h := hashKey(op.key)
	chainHead := op.entryAddr
	// Publish the update computed from the fetched value. The old value
	// lives in op.buf (session-owned memory). Publishing must tolerate
	// the chain head moving under us: when a tag-colliding hot key keeps
	// appending, a naive retry-by-refetch loop starves (each retry costs
	// two I/Os while the hot sibling appends from memory). Instead,
	// verify in memory that no newer version of OUR key appeared and
	// re-CAS against the new head.
	op.fetchedBuf = op.buf
	st, err := sess.publishFetched(h, op, rec, chainHead)
	switch st {
	case statusDone:
		return finish(OK, err)
	case statusPendingIO:
		sess.ioDone() // the verify fetch re-incremented
		return Result{}, false
	default:
		return sess.reissueRMW(op)
	}
}

// publishFetched appends the RMW result for a value fetched from storage,
// CASing the index entry. On a lost CAS it checks, purely in memory,
// whether the span of records added above the fetch point contains a
// newer version of the op's key: if not, the fetched value is still
// current and the publish retries against the new chain head; if it does
// (or the span is unverifiable because it was already evicted), the
// caller must re-execute the RMW.
func (sess *Session) publishFetched(h uint64, op *PendingOp, old record, chainHead hlog.Address) (internalStatus, error) {
	s := sess.s
	haveOld := !old.tombstone()
	for {
		// chainHead is the raw index-entry address (it may point into the
		// read cache); the CAS expects it verbatim, while the appended
		// record's prev must be the underlying hlog chain head.
		expect := chainHead
		prev, crec, cached, stale := s.splitProbe(chainHead)
		if stale {
			_, cur := s.idx.FindOrCreateEntry(h)
			chainHead = cur
			continue
		}
		if cached && !crec.invalid() && bytes.Equal(crec.key, op.key) {
			// The entry points at a cached copy of OUR key, which is by
			// construction its newest version. The re-executed RMW takes
			// the cached fast path (no device read), so this cannot
			// live-lock.
			return statusRetry, nil
		}
		var valueLen int
		if haveOld {
			valueLen = s.ops.CopyValueLen(op.key, old.value, op.input)
		} else {
			valueLen = s.ops.InitialValueLen(op.key, op.input)
		}
		_, st, err := sess.appendRecord(h, op.key, expect, prev, hlog.InvalidAddress, 0, valueLen, func(dst record) {
			if haveOld {
				s.ops.CopyUpdater(op.key, old.value, dst.value, op.input)
			} else {
				s.ops.InitialUpdater(op.key, dst.value, op.input)
			}
		})
		if err != nil {
			return statusDone, err
		}
		if st == statusDone {
			return statusDone, nil
		}
		// Lost the CAS: inspect the records newer than our observed
		// head. All of them were appended after the fetch, so they are
		// at the tail unless already evicted.
		_, cur := s.idx.FindOrCreateEntry(h)
		ncur, ccrec, ncached, nstale := s.splitProbe(cur)
		if nstale {
			chainHead = cur
			continue
		}
		if ncached && !ccrec.invalid() && bytes.Equal(ccrec.key, op.key) {
			return statusRetry, nil // a newer cached version of our key
		}
		floor := maxAddr(s.log.HeadAddress(), prev+1)
		laddr, _, found := s.traceBack(op.key, ncur, floor)
		if found {
			return statusRetry, nil // a newer version of our key exists
		}
		if laddr != hlog.InvalidAddress && laddr > prev {
			// Part of the span was evicted before we could check it in
			// memory. Verify the evicted part on storage: this keeps
			// per-attempt work proportional to the span (the appends
			// that landed during one publish attempt), where a full
			// re-descent from the tail can outlive the eviction window
			// and live-lock against a tag-colliding hot key.
			op.kind = opRMWVerify
			op.verifyStop = prev
			op.verifyCur = cur
			op.addr = laddr
			sess.issueIO(op)
			return statusPendingIO, nil
		}
		chainHead = cur
	}
}

// reissueRMW re-executes a lost-CAS RMW via the normal path.
func (sess *Session) reissueRMW(op *PendingOp) (Result, bool) {
	st, err := sess.rmwInternal(op.key, op.input, op.ctx, hashKey(op.key))
	if st == Pending {
		sess.ioDone()
		return Result{}, false
	}
	return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
		Status: st, Err: err, Ctx: op.ctx}, true
}
