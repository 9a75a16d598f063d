package faster

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// The io-worker pool completes resident-only misses out of band: a
// session goroutine that gets WouldBlock from a Read/RMW hands the
// operation to SubmitRead/SubmitRMW and is free immediately — the miss is
// admitted into a bounded queue and driven to completion by a small pool
// of workers sized to the device's useful parallelism (Config.IOWorkers).
// Each worker owns a private Session, a completion group of one
// (pending.go) that runs the group's pass under its parking rule, so the
// full slow path (chain descents, truncation races, verified RMW
// publishes, fuzzy deferrals) works unchanged; its wait adds the
// admission queue and stop channel, and its shutdown drain is the loop.
//
// Degradation is explicit and bounded in both directions:
//
//   - A full admission queue sheds at submit time with ErrIOQueueFull —
//     the device is already saturated, so queueing more work only grows
//     tail latency.
//   - A per-request deadline guarantees the done callback fires by the
//     deadline even when the device never answers: the worker sheds the
//     request with ErrOpDeadline and keeps tracking the orphaned store
//     completion so it can be dropped when (if) it lands.
//
// A shed is final. The worker that sheds a request is the goroutine that
// continues it, and a continuation or fuzzy re-execution of an op whose
// deadline has passed, or whose shed was delivered, completes with
// ErrOpDeadline before any append or CAS: a shed RMW never applies, so a
// caller may treat the shed as "not applied" and resend.
//
// Neither shed touches the health ladder: deadline and admission sheds
// are back-pressure, not device failures.

// ErrIOQueueFull is returned by SubmitRead/SubmitRMW when the io-worker
// admission queue (Config.IOQueueDepth) is full. The operation was not
// started; the caller sheds it explicitly (the RESP front-end replies
// -OVERLOADED).
var ErrIOQueueFull = errors.New("faster: io-worker queue full")

// ErrStoreClosed is returned for submissions racing (or following) store
// shutdown, and delivered to queued requests the shutdown drained.
var ErrStoreClosed = errors.New("faster: store closed")

var errNilDone = errors.New("faster: Submit requires a done callback")

// ioRequest is one operation handed to the pool. key and input are
// request-owned copies (the submitter may reuse its buffers as soon as
// Submit returns). A read carries no output buffer: the worker session
// allocates one, sized to the record's value, once the value is in hand
// (Session.outFor) — a deadline-shed request can never race a late device
// completion into a caller's memory. Requests recycle through
// ioPool.free; a buffer a Result handed out leaves the request first.
type ioRequest struct {
	kind        opKind // opRead or opRMW
	key         []byte
	input       []byte
	deadlineNs  int64
	ctx         any
	done        func(Result)
	submittedNs int64
	pickedNs    int64
	delivered   bool // worker-local: done already fired (completion or shed)
}

type ioPool struct {
	s    *Store
	reqs chan *ioRequest
	stop chan struct{}
	wg   sync.WaitGroup
	free sync.Pool // *ioRequest, key buffer attached

	// mu orders submits against shutdown: shutdown takes the write side,
	// so once closed is observed no request can slip into reqs behind the
	// final drain.
	mu     sync.RWMutex
	closed bool
}

// startIOPool backs the ioOnce lazy start: stores that never Submit run
// zero extra goroutines.
func (s *Store) startIOPool() {
	if s.closed.Load() {
		return // racing Close: leave iop nil, Submit reports ErrStoreClosed
	}
	p := &ioPool{
		s:    s,
		reqs: make(chan *ioRequest, s.cfg.IOQueueDepth),
		stop: make(chan struct{}),
	}
	p.wg.Add(s.cfg.IOWorkers)
	for i := 0; i < s.cfg.IOWorkers; i++ {
		go p.worker()
	}
	s.iop = p
}

// SubmitRead hands a read to the io-worker pool. The result is delivered
// exactly once via done, from a worker goroutine, no later than deadline
// (the zero time means no deadline). Result.Output is allocated by the
// worker at completion, exactly as long as the record's value
// (Result.ValueLen), and its ownership transfers to the callback. A
// deadline shed completes with Status Err and an error wrapping
// context.DeadlineExceeded; whether the underlying fetch still finishes
// is unobservable and irrelevant for reads. key and input are copied.
func (s *Store) SubmitRead(key, input []byte, deadline time.Time, ctx any, done func(Result)) error {
	return s.submitIO(opRead, key, input, deadline, ctx, done)
}

// SubmitRMW hands a read-modify-write to the io-worker pool; see
// SubmitRead for the delivery contract. A deadline-shed RMW never
// applies: no continuation of it publishes after its deadline.
func (s *Store) SubmitRMW(key, input []byte, deadline time.Time, ctx any, done func(Result)) error {
	return s.submitIO(opRMW, key, input, deadline, ctx, done)
}

func (s *Store) submitIO(kind opKind, key, input []byte, deadline time.Time, ctx any, done func(Result)) error {
	if done == nil {
		return errNilDone
	}
	if len(key) == 0 {
		return errKeyEmpty
	}
	if s.closed.Load() {
		return ErrStoreClosed
	}
	s.ioOnce.Do(s.startIOPool)
	p := s.iop
	if p == nil {
		return ErrStoreClosed
	}
	r, _ := p.free.Get().(*ioRequest)
	if r == nil {
		r = &ioRequest{}
	}
	*r = ioRequest{kind: kind, key: append(r.key[:0], key...), ctx: ctx, done: done,
		submittedNs: time.Now().UnixNano()}
	if input != nil {
		r.input = append([]byte(nil), input...)
	}
	if !deadline.IsZero() {
		r.deadlineNs = deadline.UnixNano()
	}
	err := p.submit(r)
	if err != nil {
		p.free.Put(r)
	}
	return err
}

func (p *ioPool) submit(r *ioRequest) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrStoreClosed
	}
	select {
	case p.reqs <- r:
		p.s.mx.ioSubmitted.Inc()
		p.s.mx.ioQueueDepth.Inc()
		return nil
	default:
		p.s.mx.ioShedQueueFull.Inc()
		return ErrIOQueueFull
	}
}

// shutdown stops the workers and fails everything still queued. Called
// from Store.Close before the epoch drain, so worker sessions release
// their slots first.
func (p *ioPool) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	// The workers each drained the queue on their way out, but all of
	// them may have exited before the last submit landed.
	for {
		select {
		case r := <-p.reqs:
			p.s.mx.ioQueueDepth.Dec()
			p.fail(r, ErrStoreClosed)
		default:
			return
		}
	}
}

// fail delivers err for r unless r was already delivered. The Result
// carries the request's own key and input, so neither is reused.
func (p *ioPool) fail(r *ioRequest, err error) {
	if r.delivered {
		return
	}
	r.delivered = true
	res := Result{Kind: r.kind.String(), Key: r.key, Input: r.input,
		Status: Err, Err: err, Ctx: r.ctx}
	r.key, r.input = nil, nil
	r.done(res)
}

// ioWorker is one pool goroutine's state: its private session and the
// requests it has issued whose store completion has not been reaped yet
// (including ones already shed at their deadline).
type ioWorker struct {
	p       *ioPool
	sess    *Session
	live    []*ioRequest
	results []Result // reap scratch
}

// worker is one pool goroutine: admit requests, issue them on a private
// session, hand the session's completions back to the submitters, and
// shed anything that outlives its deadline. It is driven by events, not
// a poll: between them it sleeps on its group's waker — parked, so it
// pins no epoch and cannot stall flushes, compactions and checkpoints
// like a wedged session — with the admission queue, the pool's stop
// channel and a timer for the earliest live deadline. It
// never blocks on device I/O, so a latency spike on cold misses leaves
// admission (and every other worker) live.
func (p *ioPool) worker() {
	defer p.wg.Done()
	w := &ioWorker{p: p, sess: p.s.StartSession()}
	w.sess.ownOutputs = true
	w.sess.Park()
	for {
		r, stopped := w.sess.group.wake.wait(w.nextWake(), p.reqs, p.stop)
		if stopped {
			w.finish()
			return
		}
		if r != nil {
			w.pickup(r)
			if len(w.sess.retries) > 0 {
				// The op deferred in the fuzzy region, quite possibly on a
				// read-only shift only this session held back until the
				// Park that ended the op.
				w.reap()
			}
		} else {
			w.reap()
		}
		w.shedExpired()
	}
}

// nextWake is the instant the worker must look at its live set again
// without being told to: the earliest deadline not yet delivered, or the
// next maintenance tick while the session holds fuzzy deferrals.
func (w *ioWorker) nextWake() int64 {
	var earliest int64
	for _, r := range w.live {
		if !r.delivered && r.deadlineNs != 0 && (earliest == 0 || r.deadlineNs < earliest) {
			earliest = r.deadlineNs
		}
	}
	return waitBound(earliest, len(w.sess.retries) > 0)
}

// pickup issues a freshly admitted request on the worker session. A
// request that resolves synchronously (the record became resident, or the
// store rejects the op) is delivered immediately; one that goes Pending
// joins the live set until its completion is reaped.
func (w *ioWorker) pickup(r *ioRequest) {
	p, sess := w.p, w.sess
	p.s.mx.ioQueueDepth.Dec()
	r.pickedNs = time.Now().UnixNano()
	p.s.mx.ioQueueWait.Observe(time.Duration(r.pickedNs - r.submittedNs))
	if r.deadlineNs > 0 && r.pickedNs >= r.deadlineNs {
		// Dead on arrival: it waited out its whole budget in the queue.
		p.s.mx.ioShedTimeout.Inc()
		p.fail(r, ErrOpDeadline)
		p.free.Put(r)
		return
	}
	var st Status
	var err error
	sess.Unpark()
	if r.kind == opRMW {
		st, err = sess.RMW(r.key, r.input, r)
	} else {
		st, err = sess.Read(r.key, r.input, nil, r)
	}
	sess.Park()
	if st == Pending {
		p.s.mx.ioInflight.Inc()
		w.live = append(w.live, r)
		return
	}
	res := Result{Kind: r.kind.String(), Key: r.key, Input: r.input,
		Status: st, Err: err, Ctx: r.ctx}
	if st == OK && r.kind == opRead {
		res.Output, res.ValueLen = sess.owned, len(sess.owned)
		sess.owned = nil
	}
	r.key, r.input = nil, nil
	w.deliver(r, res)
	p.free.Put(r)
}

// deliver fires r's done with a completed operation's result.
func (w *ioWorker) deliver(r *ioRequest, res Result) {
	r.delivered = true
	w.p.s.mx.ioDelivered.Inc()
	w.p.s.mx.ioService.Observe(time.Duration(time.Now().UnixNano() - r.pickedNs))
	r.done(res)
}

// reap runs one pass of the worker session's pending machinery and hands
// what finished to the submitters.
func (w *ioWorker) reap() {
	if debugReap != nil {
		debugReap()
	}
	w.results = w.sess.group.pass(w.results[:0])
	w.handOver(w.results)
	clear(w.results)
}

// handOver delivers the session results of live requests and retires the
// requests. The completion of a request already shed at its deadline is
// dropped (its done fired then). Result.Input is copied back into the
// request-owned buffer, which leaves with the Result, so the session can
// recycle its op — whose input copy RMW verdict channels write into —
// immediately.
func (w *ioWorker) handOver(results []Result) {
	for i := range results {
		res := &results[i]
		r, _ := res.Ctx.(*ioRequest)
		j := slices.Index(w.live, r)
		if j < 0 {
			continue // not a live request's (r is nil for a foreign ctx)
		}
		last := len(w.live) - 1
		w.live[j] = w.live[last]
		w.live[last] = nil
		w.live = w.live[:last]
		w.p.s.mx.ioInflight.Dec()
		if !r.delivered {
			if res.Input != nil && r.input != nil {
				res.Input = append(r.input[:0], res.Input...)
			}
			r.input = nil
			res.Ctx = r.ctx // the request was the session-level ctx; unwrap
			w.deliver(r, *res)
		}
		w.p.free.Put(r)
	}
}

// shedExpired delivers a deadline shed for every live request past its
// deadline. The request stays in the live set so its eventual store
// completion is still reaped (and dropped) — the submitter is unblocked
// by the deadline no matter what the device does.
func (w *ioWorker) shedExpired() {
	if len(w.live) == 0 {
		return
	}
	now := time.Now().UnixNano()
	for _, r := range w.live {
		if !r.delivered && r.deadlineNs != 0 && now >= r.deadlineNs {
			w.p.s.mx.ioShedTimeout.Inc()
			w.p.fail(r, ErrOpDeadline)
		}
	}
}

// finish is the worker's shutdown path: fail its share of the queue,
// drain outstanding I/O under a bounded wait, and fail whatever is left.
func (w *ioWorker) finish() {
	p, sess := w.p, w.sess
	draining := true
	for draining {
		select {
		case r := <-p.reqs:
			p.s.mx.ioQueueDepth.Dec()
			p.fail(r, ErrStoreClosed)
		default:
			draining = false
		}
	}
	results, err := sess.CompletePendingTimeout(2 * time.Second)
	w.handOver(results)
	for _, r := range w.live {
		p.fail(r, ErrStoreClosed)
	}
	if err == nil {
		sess.Close()
		return
	}
	// The device is wedged past the drain budget: park the session so it
	// pins no epoch and abandon it — the store is closing anyway, and
	// blocking shutdown on a dead device is the stall this pool exists to
	// prevent.
	sess.Park()
}
