package faster

import (
	"errors"
	"sync"
	"time"

	"repro/internal/hlog"
)

// Cold-read coalescing: concurrent pending reads that land on the same
// hlog block share one device call. The first op to arrive for a block
// becomes the leader and issues a single block-sized read; ops arriving
// while that read is in flight attach as followers and are resolved from
// the leader's buffer when it lands. Under a skewed workload bursts of
// misses pile onto the same few pages, so this turns N record fetches
// (2N device calls with the header-then-body protocol) into one.
//
// The coalesced path is strictly an optimization with a per-op fallback:
// any op whose record cannot be served from the block (it straddles the
// block end, or the leader's read shed on the leader's deadline while the
// follower is still live) is re-issued individually through the normal
// two-phase path (errCoalesceRetry). Correctness-sensitive races —
// truncation below the block, corrupt parses — resolve exactly as on the
// individual path, because resolution happens in continueOp either way.

// coalesceBlockMax bounds the block size: big enough to capture bursts,
// small enough that a solo leader's over-read stays cheap.
const coalesceBlockMax = 32 << 10

// errCoalesceRetry routes an op that a coalesced block read could not
// serve back to the individual two-phase read path (see continueOp).
var errCoalesceRetry = errors.New("faster: coalesced read re-issues individually")

// blockWaiter is one op attached to a block read. buf is a record buffer
// taken from the op's session pool when it joined (on the session
// goroutine; deliver runs elsewhere and must not touch that pool).
type blockWaiter struct {
	sess *Session
	op   *PendingOp
	buf  []byte
}

// blockFetch is one in-flight block read. Finished fetches recycle through
// coalescer.free with their block buffer and waiter slice attached.
type blockFetch struct {
	start   hlog.Address
	buf     []byte
	waiters []blockWaiter
	done    func(error) // bound to co.deliver(f, ·) once, reused with f
}

type coalescer struct {
	s        *Store
	blockLen uint64

	mu       sync.Mutex
	inflight map[hlog.Address]*blockFetch
	free     []*blockFetch
}

func newCoalescer(s *Store) *coalescer {
	bl := s.log.PageSize()
	if bl > coalesceBlockMax {
		bl = coalesceBlockMax
	}
	return &coalescer{s: s, blockLen: bl, inflight: make(map[hlog.Address]*blockFetch)}
}

// tryJoin routes op's record fetch through a shared block read when the
// whole block is durably readable. Returns false to use the individual
// path. Called from the session goroutine inside issueIO (after the
// in-flight accounting).
func (co *coalescer) tryJoin(sess *Session, op *PendingOp) bool {
	start := op.addr &^ (co.blockLen - 1)
	// The block must sit entirely in the flushed, unreclaimed region:
	// everything below head is on the device, everything below begin may
	// be gone. (op.addr itself is below head or it would not be pending.)
	if start < co.s.log.BeginAddress() || start+co.blockLen > co.s.log.HeadAddress() {
		return false
	}
	w := blockWaiter{sess, op, sess.getIOBuf(0)}
	co.mu.Lock()
	if f := co.inflight[start]; f != nil {
		f.waiters = append(f.waiters, w)
		co.mu.Unlock()
		co.s.mx.ioCoalesced.Inc()
		return true
	}
	var f *blockFetch
	if n := len(co.free); n > 0 {
		f = co.free[n-1]
		co.free = co.free[:n-1]
	} else {
		f = &blockFetch{buf: make([]byte, co.blockLen)}
		f.done = func(err error) { co.deliver(f, err) }
	}
	f.start = start
	f.waiters = append(f.waiters, w)
	co.inflight[start] = f
	co.mu.Unlock()
	// The leader's deadline bounds the device call; followers with laxer
	// deadlines recover via the individual re-issue on a deadline shed.
	co.s.readRetrying(start, f.buf, op.deadlineNs, f.done)
	return true
}

// deliver resolves every waiter from the completed block read. Runs on
// the device-callback goroutine: it may parse and copy, but must not
// touch session-owned pools (each op is pushed to its session's
// completion queue, same as the individual path).
func (co *coalescer) deliver(f *blockFetch, err error) {
	co.mu.Lock()
	delete(co.inflight, f.start) // from here on nobody else appends to f.waiters
	co.mu.Unlock()

	now := time.Now().UnixNano()
	for _, w := range f.waiters {
		op := w.op
		switch {
		case err != nil && errors.Is(err, ErrOpDeadline):
			// The leader's deadline shed the read. Followers whose own
			// deadline also expired shed too; live ones re-issue solo.
			if op.deadlineNs > 0 && now >= op.deadlineNs {
				op.err = ErrOpDeadline
			} else {
				op.err = errCoalesceRetry
			}
		case err != nil:
			// The block read failed. A block spans more than the records it
			// was joined for — e.g. after crash recovery the device's written
			// extent can end mid-block while every record below the tail is
			// individually readable — so a block failure proves nothing about
			// any single record. Fall back to the individual path, which
			// surfaces genuine device losses with its own retry and health
			// escalation.
			op.err = errCoalesceRetry
		case op.deadlineNs > 0 && now >= op.deadlineNs:
			op.err = ErrOpDeadline
		default:
			off := op.addr - f.start
			var size uint32
			if off+recHeaderBytes <= co.blockLen {
				size = probeSize(f.buf[off:])
			}
			switch {
			case off+recHeaderBytes > co.blockLen || uint64(off)+uint64(size) > co.blockLen:
				// The record (or just its header) straddles the block end
				// (block < page): fetch it individually.
				op.err = errCoalesceRetry
			case size == 0 || size > maxRecordBytes:
				// Same resolution as the individual path: corrupt, unless
				// a truncation raced the read (continueOp re-checks begin).
				op.err = errCorruptRecord
			default:
				op.buf = append(w.buf[:0], f.buf[off:uint64(off)+uint64(size)]...)
			}
		}
		w.sess.completed.push(op)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	co.mu.Lock()
	if len(co.free) < 8 {
		co.free = append(co.free, f)
	}
	co.mu.Unlock()
}
