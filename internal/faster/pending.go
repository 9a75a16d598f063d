package faster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/hlog"
)

// Operations go pending for two reasons (§5.3, §6.3): the record they need
// lives on storage (Read, RMW), or an RMW hit the fuzzy region and must be
// retried after the safe read-only offset catches up. Each pending
// operation carries a context that resumes it; completions are queued per
// session and drained by CompletePending, exactly as in §2.5. An RMW
// completed from storage publishes its copy through publishVerified, the
// same lookup rule a compaction copy uses; when the span it must re-check
// has left memory, the op continues as a span check: a descent of that
// span (verifyHead set) on the same continuation machinery.
//
// One driver finishes every miss: the sessions one goroutine drives form
// a completionGroup, with one pass, one loop and one parking rule.
// CompletePending and Close on both session types, and an io-worker's
// shutdown, run the loop; the worker's event loop runs the same pass and
// sleeps on the same waker.

// opKind identifies how a pending operation resumes.
type opKind int

const (
	opRead      opKind = iota // storage read, deliver value
	opReadMerge               // CRDT reconcile continuing down the chain
	opRMW                     // storage read, then a verified copy-update
	opRMWRetry                // fuzzy-region deferral, re-execute
	opCompact                 // compaction span check (compact.go)
)

// String names the operation an op belongs to, whatever phase it is in:
// Result.Kind.
func (k opKind) String() string {
	switch k {
	case opRead, opReadMerge:
		return "read"
	case opRMW, opRMWRetry:
		return "rmw"
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
	entryAddr hlog.Address // index entry observed when the op issued
	acc       []byte       // CRDT merge accumulator
	buf       []byte       // completed read buffer
	err       error

	// A verified publish (publishVerified) re-checks only what appeared
	// above stop: an RMW's chain head when its fetch issued, a compaction
	// candidate's address. verifyHead is nonzero while the op is a span
	// check, a descent of (stop, verifyHead] on storage. val is the version
	// the op copies forward: a compaction candidate's value (the op's own
	// copy, since the Compact driver reuses its page arena) or an RMW's
	// fetched old value, nil when the key had none.
	stop       hlog.Address
	verifyHead hlog.Address
	val        []byte

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

// result is op's completion with status st; done is always true, so a
// continuation can return it directly.
func (op *PendingOp) result(st Status, err error) (Result, bool) {
	return Result{Kind: op.kind.String(), Key: op.key, Input: op.input,
		Output: op.output, Status: st, Err: err, Ctx: op.ctx}, true
}

// Result reports the completion of a pending operation.
type Result struct {
	// Kind names the operation: "read", "rmw" or "compact".
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
// for one. The members of a completionGroup share one waker.
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

// firstReadBytes is the span issueIO reads for a cold record: enough for
// any record of a few KiB in one device call, so a miss costs one read.
// Longer records take a second read of their exact size.
const firstReadBytes = 4 << 10

// issueIO starts the asynchronous fetch of the record at op.addr: one read
// of the span [addr, addr+firstReadBytes), clamped to addr's page end (the
// device holds every page below the head whole, hlog.RecoverTo included),
// then — only for a record longer than the span — a second read of the
// whole record. The log retries each read under the read policy, within
// the op's deadline. The final callback parks the op on the session's
// completion queue; no store state is touched from the I/O callback
// goroutine beyond the health escalation for permanent device loss.
func (sess *Session) issueIO(op *PendingOp) {
	sess.inFlight++
	sess.s.mx.pendingDepth.Inc()
	sess.stat.pendingIOs.Add(1)
	op.issuedNs = time.Now().UnixNano()
	s := sess.s
	fail := func(err error) {
		if errors.Is(err, hlog.ErrDeadline) {
			err = ErrOpDeadline
		}
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
	s.log.ReadAsync(op.addr, buf, op.deadlineNs, func(err error) {
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
			s.log.ReadAsync(op.addr, buf, op.deadlineNs, func(err error) {
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
// With wait set it blocks until every outstanding operation has finished.
// The session is a group of one: it parks on entry, runs the group's loop,
// and is unparked again on return.
func (sess *Session) CompletePending(wait bool) []Result {
	results, _ := sess.completePending(wait, 0)
	return results
}

// CompletePendingTimeout is CompletePending(true) with a deadline: it
// returns ErrPendingTimeout (plus the results drained so far) if
// outstanding operations are still unfinished when d elapses. This is the
// bound that keeps a caller from hanging when the device degrades faster
// than the health machine can classify it.
func (sess *Session) CompletePendingTimeout(d time.Duration) ([]Result, error) {
	return sess.completePending(true, time.Now().Add(d).UnixNano())
}

func (sess *Session) completePending(wait bool, deadlineNs int64) ([]Result, error) {
	if sess.closed {
		return nil, nil // Close completed everything and released the guard
	}
	sess.g.Park()
	defer sess.g.Unpark()
	return sess.group.complete(wait, deadlineNs)
}

// completionGroup is the set of sessions one goroutine drives to
// completion: a flat Session alone, a ShardedSession's shard subs, or an
// io-worker's session. Their completion queues share the group's waker.
// The parking rule: a member is unparked only while it runs a pass or an
// operation, so a goroutine waiting for its misses pins no epoch on any
// shard, and each Park runs the trigger actions the member held back —
// flushes, evictions and the read-only shifts its own deferrals wait for
// keep moving.
type completionGroup struct {
	members []*Session
	wake    *waker
}

// newCompletionGroup makes members one group: every member's completion
// queue, and its own group of one, signals and waits on one waker.
func newCompletionGroup(members []*Session) completionGroup {
	g := completionGroup{members: members, wake: newWaker()}
	for _, m := range members {
		m.completed.wake = g.wake
		m.group.wake = g.wake
	}
	return g
}

// pass runs one non-blocking round over every member — Unpark, completePass,
// Park — appending the finished operations' Results to results.
func (g *completionGroup) pass(results []Result) []Result {
	for _, m := range g.members {
		m.g.Unpark()
		results = m.completePass(results)
		m.g.Park()
	}
	return results
}

// complete is the one completion loop: a pass, then return once nothing
// is outstanding (or at once without wait), else sleep on the waker until
// a completion lands, the next maintenance tick while deferrals are
// outstanding, or deadlineNs (0 = none), past which it returns
// ErrPendingTimeout. Every caller enters it through a CompletePending
// method, whose frame a stall detector finds on a goroutine blocked here.
func (g *completionGroup) complete(wait bool, deadlineNs int64) ([]Result, error) {
	var results []Result
	for {
		n := len(results)
		results = g.pass(results)
		inFlight, deferred := 0, 0
		for _, m := range g.members {
			inFlight += m.inFlight
			deferred += len(m.retries)
		}
		switch {
		case !wait || inFlight+deferred == 0:
			return results, nil
		case len(results) > n:
			continue
		case deadlineNs != 0 && time.Now().UnixNano() > deadlineNs:
			return results, fmt.Errorf("%w (%d in flight, %d deferred)",
				ErrPendingTimeout, inFlight, deferred)
		}
		g.wake.wait(waitBound(deadlineNs, deferred > 0), nil, nil)
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
				sess.retrying = true
				st, err = sess.rmwInternal(op.key, op.input, op.ctx, hashKey(op.key))
				sess.retrying = false
				if st == Pending {
					// Re-queued (still fuzzy, or now on storage) as a
					// fresh op; this one is done with.
					sess.recycleOp(op)
					continue
				}
			}
			res, _ := op.result(st, err)
			results = append(results, res)
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
	if op.expired() {
		// A shed is final: stop before any append or CAS.
		return op.result(Err, ErrOpDeadline)
	}
	if op.err != nil {
		if op.addr < s.log.BeginAddress() {
			return sess.resumeTruncated(op)
		}
		return op.result(Err, op.err)
	}
	rec, ok := parseRecord(op.buf)
	if !ok {
		if op.addr < s.log.BeginAddress() {
			// A truncated range can read back as zeros rather than an
			// error (file devices only move a watermark); same race.
			return sess.resumeTruncated(op)
		}
		return op.result(Err, errCorruptRecord)
	}

	if rec.invalid() || !bytes.Equal(rec.key, op.key) {
		// Not our record: follow the chain further down.
		return sess.followChain(op, rec.prev())
	}

	switch op.kind {
	case opRead:
		if rec.tombstone() {
			return op.result(NotFound, nil)
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
		res, done := op.result(OK, nil)
		res.ValueLen = len(rec.value)
		return res, done

	case opReadMerge:
		if rec.tombstone() {
			copy(op.output, op.acc)
			return op.result(OK, nil)
		}
		return sess.mergeAndDescend(op, rec)

	case opRMW, opCompact:
		if op.verifyHead != 0 {
			// A span check met a version of the key above the verified
			// head (even a tombstone): the copy is superseded, unless
			// the version is a delta, which publishVerified refuses.
			if rec.delta() {
				return op.result(Err, errCompactDelta)
			}
			return sess.supersede(op)
		}
		// The RMW's fetch found the key's newest version at or below its
		// stop: copy-update it, or start over from the initial value if
		// it is a tombstone.
		if !rec.tombstone() {
			op.val = rec.value
		}
		return sess.publishOp(op)
	}
	return op.result(Err, errCorruptRecord)
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
		return op.result(st, err)
	case opCompact:
		// The span being checked was truncated out from under the
		// descent: verify everything above the candidate again.
		return sess.publishOp(op)
	default: // opRMW, opRMWRetry
		return sess.reissueRMW(op)
	}
}

// followChain either issues the next fetch or finishes the op when the
// chain is exhausted.
func (sess *Session) followChain(op *PendingOp, next hlog.Address) (Result, bool) {
	s := sess.s
	if op.verifyHead != 0 && next <= op.stop {
		// The span check reached its stop without meeting the key: publish
		// again with the span's head as the verified one. A chain that
		// passes below stop (or ends) skipped it: the entry was released
		// and recreated, so the key died.
		if next < op.stop {
			return sess.supersede(op)
		}
		op.stop, op.verifyHead = op.verifyHead, 0
		return sess.publishOp(op)
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
	if op.buf != nil {
		sess.putIOBuf(op.buf)
	}
	op.buf = nil
	sess.ioDone()
	sess.issueIO(op)
	return Result{}, false
}

// chainExhausted finishes an op whose key turned out not to exist.
func (sess *Session) chainExhausted(op *PendingOp) (Result, bool) {
	switch op.kind {
	case opRead:
		return op.result(NotFound, nil)
	case opReadMerge:
		copy(op.output, op.acc)
		return op.result(OK, nil)
	case opRMW, opCompact:
		if op.verifyHead != 0 {
			// The span check passed below its stop: the key died.
			return sess.supersede(op)
		}
		// Key absent below the fetch point: CREATE_RECORD with the initial
		// value (Alg 4), through the same verified publish as a fetched
		// value (op.val is nil).
		return sess.publishOp(op)
	}
	return op.result(Err, errCorruptRecord)
}

// mergeAndDescend folds rec into the accumulator and continues down the
// chain until the base (non-delta) record.
func (sess *Session) mergeAndDescend(op *PendingOp, rec record) (Result, bool) {
	s := sess.s
	s.merge.Merge(op.key, rec.value, op.acc)
	if !rec.delta() {
		copy(op.output, op.acc)
		return op.result(OK, nil)
	}
	return sess.followChain(op, rec.prev())
}

// publishOp publishes a pending copy-forward through publishVerified: an
// RMW completed from storage (a copy-update of op.val, or the initial
// value when op.val is nil) or a compaction copy of op.val. There is
// deliberately no "chain head moved, refetch" rule for the RMW: the
// publish re-checks only the records above the op's stop and restarts
// only when a newer version of the key exists.
func (sess *Session) publishOp(op *PendingOp) (Result, bool) {
	s := sess.s
	old := op.val
	var valueLen int
	var fill func(dst record)
	switch {
	case op.kind == opCompact:
		valueLen, fill = len(old), func(dst record) { copy(dst.value, old) }
	case old != nil:
		valueLen = s.ops.CopyValueLen(op.key, old, op.input)
		fill = func(dst record) { s.ops.CopyUpdater(op.key, old, dst.value, op.input) }
	default:
		valueLen = s.ops.InitialValueLen(op.key, op.input)
		fill = func(dst record) { s.ops.InitialUpdater(op.key, dst.value, op.input) }
	}
	st, sp, err := sess.publishVerified(hashKey(op.key), op.key, op.stop, valueLen, fill)
	switch {
	case err != nil:
		return op.result(Err, err)
	case st == statusRetry:
		return sess.supersede(op)
	case st == statusDone:
		res, done := op.result(OK, nil)
		if op.kind == opCompact {
			res.ValueLen = valueLen
		}
		return res, done
	}
	// The new span left memory. val may alias the fetched buffer, so the
	// op gives the buffer up; the descent reads into a fresh one.
	op.buf = nil
	sess.ioDone()
	sess.checkSpan(op, sp)
	return Result{}, false
}

// supersede finishes a copy-forward whose version is no longer the key's
// newest: a compaction candidate is skipped, an RMW re-executes.
func (sess *Session) supersede(op *PendingOp) (Result, bool) {
	if op.kind == opCompact {
		return op.result(NotFound, nil)
	}
	return sess.reissueRMW(op)
}

// span is a stretch of a key's chain that a verified publish could not
// check in memory: (stop, head], which left memory at from.
type span struct{ stop, head, from hlog.Address }

// checkSpan starts op's storage descent of sp.
func (sess *Session) checkSpan(op *PendingOp, sp span) {
	op.stop, op.verifyHead, op.addr = sp.stop, sp.head, sp.from
	sess.issueIO(op)
}

// publishVerified is F2's lookup rule for a copy-forward: it appends key's
// version — valueLen bytes written by fill — unless a newer version of key
// appeared above stop, the chain address that version was verified at. It
// walks the chain beneath the index entry down to max(head, stop+1). Under
// a read-cache copy that is the hlog chain the copy mirrors: a cached copy
// is volatile, never a version of its own, and the CAS over the tagged
// address drops it, as every writer's CAS does. Where the walk ends
// decides:
//
//   - a version of key, or a walk that ends below stop, means superseded
//     (statusRetry): the key has a newer version, or its entry was
//     released and recreated, so it died;
//   - except a CRDT delta: it supersedes nothing, since reads fold it
//     with the versions below it, so the copy-forward fails with
//     errCompactDelta (only compaction meets one: a CRDT RMW never
//     fetches);
//   - a walk that ends above stop leaves the span (stop, chain head] on
//     storage: statusPendingIO, and the caller descends it (checkSpan);
//   - a walk that ends exactly at stop appends, the CAS expecting the
//     entry and prev set to the chain head (statusDone).
//
// A lost CAS raises stop to the chain head just verified and loops, so
// each round re-checks only the records appended during the last attempt.
// That is what converges against a tag-colliding hot key whose appends
// outpace this publish: a rule that re-verified from the original stop,
// or re-fetched, would re-walk a span that grows with every lost race and
// could be evicted before the walk ends.
func (sess *Session) publishVerified(h uint64, key []byte, stop hlog.Address, valueLen int, fill func(dst record)) (internalStatus, span, error) {
	s := sess.s
	for {
		_, raw, ok := s.idx.FindEntry(h)
		if !ok {
			return statusRetry, span{}, nil
		}
		chain, _, _, stale := s.splitProbe(raw)
		if stale {
			continue
		}
		laddr, rec, found := s.traceBack(key, chain, maxAddr(s.log.HeadAddress(), stop+1))
		switch {
		case found && rec.delta():
			return statusDone, span{}, errCompactDelta
		case found || laddr < stop:
			return statusRetry, span{}, nil
		case laddr > stop:
			return statusPendingIO, span{stop, chain, laddr}, nil
		}
		_, st, err := sess.appendRecord(h, key, raw, chain, hlog.InvalidAddress, 0, valueLen, fill)
		if err != nil || st == statusDone {
			return statusDone, span{}, err
		}
		stop = chain
	}
}

// reissueRMW re-executes an RMW via the normal path.
func (sess *Session) reissueRMW(op *PendingOp) (Result, bool) {
	st, err := sess.rmwInternal(op.key, op.input, op.ctx, hashKey(op.key))
	if st == Pending {
		sess.ioDone()
		return Result{}, false
	}
	return op.result(st, err)
}
