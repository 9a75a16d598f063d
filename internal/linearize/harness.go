package linearize

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faster"
)

// The harness drives seeded pseudo-random concurrent workloads against a
// faster.Store, recording every Read/Upsert/RMW/Delete invoke/response
// pair (including operations that go Pending and complete later via
// CompletePending) into a history the checker can verify. Values are the
// 8-byte counters of faster.SumOps.

// Target abstracts the store under test so the same workloads run
// against a plain *faster.Store or a *faster.ShardedStore. Both satisfy
// the method set directly except for session construction, whose
// concrete return types differ; the two adapters below bridge that.
type Target interface {
	NewSession() TargetSession
	SubmitRead(key, input []byte, deadline time.Time, ctx any, done func(faster.Result)) error
	SubmitRMW(key, input []byte, deadline time.Time, ctx any, done func(faster.Result)) error
}

// TargetSession is the slice of the session API the harness drives.
type TargetSession interface {
	Read(key, input, output []byte, ctx any) (faster.Status, error)
	Upsert(key, value []byte) (faster.Status, error)
	RMW(key, input []byte, ctx any) (faster.Status, error)
	Delete(key []byte) (faster.Status, error)
	ExecBatch(ops []faster.BatchOp) error
	CompletePending(wait bool) []faster.Result
	Park()
	Unpark()
	Close() error
}

// StoreTarget adapts *faster.Store to Target.
type StoreTarget struct{ *faster.Store }

// NewSession starts a plain store session.
func (t StoreTarget) NewSession() TargetSession { return t.Store.StartSession() }

// ShardedTarget adapts *faster.ShardedStore to Target.
type ShardedTarget struct{ *faster.ShardedStore }

// NewSession starts a sharded session spanning every shard.
func (t ShardedTarget) NewSession() TargetSession { return t.ShardedStore.StartSession() }

// Workload describes one concurrent run.
type Workload struct {
	// Clients is the number of concurrent sessions (default 4).
	Clients int
	// Ops is the number of operations each client issues (default 64).
	Ops int
	// Keys is the size of the key space; keys are drawn uniformly from
	// [1, Keys] (default 4). Keep Clients*Ops/Keys comfortably under the
	// checker's 256-op partition limit.
	Keys uint64
	// Seed makes the schedule reproducible; client i derives its own rng
	// from Seed+i.
	Seed int64
	// ReadPct, UpsertPct, RMWPct and DeletePct weight the op mix; all
	// zero selects 40/25/25/10.
	ReadPct, UpsertPct, RMWPct, DeletePct int
	// RMWMax bounds the random RMW delta, drawn from [1, RMWMax]
	// (default 100). The mutation gate raises it past 1<<32 so a torn
	// 64-bit write changes both halves of the counter.
	RMWMax uint64
	// PendingBatch is how many operations may be in flight before the
	// client drains completions (default 4). Batching is what lets
	// pending I/Os and fuzzy deferrals overlap with later operations.
	PendingBatch int
	// Batch, when >1, issues each client's operations through
	// Session.ExecBatch in mixed-kind windows of this size instead of one
	// call per operation. Every slot is still recorded as an individual
	// operation whose invoke/response interval spans the whole batch
	// call — exactly the API's guarantee: a batch amortizes bookkeeping,
	// it is not a transaction.
	Batch int
	// AsyncIO routes each client's reads and RMWs through the store's
	// io-worker pool (SubmitRead/SubmitRMW) instead of its session, so
	// misses complete out of band on worker goroutines while the client
	// keeps issuing; upserts and deletes (which never touch storage)
	// stay on the client's session. Completions are recorded exactly
	// like pending-I/O completions; a deadline or admission shed leaves
	// an RMW incomplete (it may or may not apply) and drops a read (it
	// observed nothing). Incompatible with Batch > 1.
	AsyncIO bool
	// AsyncDeadline is the per-operation deadline for AsyncIO
	// submissions (zero: none).
	AsyncDeadline time.Duration
	// Chaos, if non-nil, runs on its own goroutine for the duration of
	// the workload (read-only shifts, index growth, ...). It must return
	// promptly when stop closes. The goroutine holds no session.
	Chaos func(stop <-chan struct{})
	// Quiesce, if non-nil, bounds the tail of the schedule: once the
	// channel is closed, each per-op client issues at most QuiesceTail
	// more operations and then stops early. Checkpoint/recover scenarios
	// close it as the checkpoint begins so the crash window holds a
	// bounded handful of in-flight operations however long the
	// checkpoint's epoch drain takes on a loaded machine — without it
	// the window (and the checker's incomplete-op search space) grows
	// with machine load. Ignored by batched clients (Batch > 1).
	Quiesce <-chan struct{}
	// QuiesceTail is how many operations each client may still issue
	// after Quiesce closes. Zero stops clients at their next iteration.
	QuiesceTail int
	// Interleave, if non-nil, is called by every client goroutine before
	// its n-th operation (n counts from 0). Unlike Chaos it is
	// synchronous with the schedule, so triggers it fires (read-only
	// shifts, flush kicks) interleave with operations by construction
	// rather than by racing the clock. It runs on a session goroutine:
	// it must not call anything that requires holding no session (e.g.
	// GrowIndex).
	Interleave func(client, n int)
}

func (w *Workload) defaults() {
	if w.Clients == 0 {
		w.Clients = 4
	}
	if w.Ops == 0 {
		w.Ops = 64
	}
	if w.Keys == 0 {
		w.Keys = 4
	}
	if w.ReadPct+w.UpsertPct+w.RMWPct+w.DeletePct == 0 {
		w.ReadPct, w.UpsertPct, w.RMWPct, w.DeletePct = 40, 25, 25, 10
	}
	if w.PendingBatch == 0 {
		w.PendingBatch = 4
	}
	if w.RMWMax == 0 {
		w.RMWMax = 100
	}
}

// RunWorkload executes the workload against store and returns the
// recorded history. The recorder is returned too so callers can extend
// the history on the same clock (checkpoint/recover scenarios).
func RunWorkload(store *faster.Store, w Workload) ([]Op, *Recorder) {
	return RunWorkloadTarget(StoreTarget{store}, w)
}

// RecordWorkload runs the workload, recording into rec (which may
// already hold history from an earlier phase on the same clock).
func RecordWorkload(store *faster.Store, rec *Recorder, w Workload) {
	RecordWorkloadTarget(StoreTarget{store}, rec, w)
}

// RunWorkloadTarget is RunWorkload over any Target (plain or sharded).
func RunWorkloadTarget(store Target, w Workload) ([]Op, *Recorder) {
	w.defaults()
	rec := NewRecorder()
	RecordWorkloadTarget(store, rec, w)
	return rec.History(), rec
}

// RecordWorkloadTarget is RecordWorkload over any Target.
func RecordWorkloadTarget(store Target, rec *Recorder, w Workload) {
	w.defaults()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if w.Chaos != nil {
		chaos := w.Chaos
		wg.Add(1)
		go func() {
			defer wg.Done()
			chaos(stop)
		}()
	}
	var clients sync.WaitGroup
	for i := 0; i < w.Clients; i++ {
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			runClient(store, id, rec.Client(id), rand.New(rand.NewSource(w.Seed+int64(id))), w)
		}(i)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
}

// pendingCtx travels through the store as the operation's user context
// and comes back on the Result, matching the completion to its history
// entry. out is the read's output buffer.
type pendingCtx struct {
	id  OpID
	out []byte
}

// runClient issues one session's operations, recording each into log.
func runClient(store Target, clientID int, log *ClientLog, rng *rand.Rand, w Workload) {
	if w.Batch > 1 {
		runBatchClient(store, clientID, log, rng, w)
		return
	}
	if w.AsyncIO {
		runAsyncClient(store, clientID, log, rng, w)
		return
	}
	sess := store.NewSession()
	inFlight := 0

	drain := func(wait bool) {
		for _, res := range sess.CompletePending(wait) {
			pc, ok := res.Ctx.(*pendingCtx)
			if !ok {
				continue // not one of ours (defensive)
			}
			inFlight--
			finishPending(log, pc, res)
		}
	}

	total := w.ReadPct + w.UpsertPct + w.RMWPct + w.DeletePct
	tail := -1 // -1: Quiesce not (yet) observed closed
	for n := 0; n < w.Ops; n++ {
		if w.Quiesce != nil && tail < 0 {
			select {
			case <-w.Quiesce:
				tail = w.QuiesceTail
			default:
			}
		}
		if tail == 0 {
			break
		}
		if tail > 0 {
			tail--
		}
		if w.Interleave != nil {
			w.Interleave(clientID, n)
		}
		k := uint64(rng.Int63n(int64(w.Keys))) + 1
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, k)
		roll := rng.Intn(total)
		switch {
		case roll < w.ReadPct:
			out := make([]byte, 8)
			id := log.Begin(KVInput{Kind: KVRead, Key: k})
			st, err := sess.Read(key, nil, out, &pendingCtx{id: id, out: out})
			switch {
			case st == faster.Pending:
				inFlight++
			case st == faster.OK:
				log.End(id, KVOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
			case st == faster.NotFound:
				log.End(id, KVOutput{})
			case err != nil || st == faster.Err:
				// The read observed nothing and changed nothing.
				log.Drop(id)
			}
		case roll < w.ReadPct+w.UpsertPct:
			v := rng.Uint64()%1000 + 1
			id := log.Begin(KVInput{Kind: KVUpsert, Key: k, Arg: v})
			st, _ := sess.Upsert(key, u64le(v))
			if st == faster.OK {
				log.End(id, KVOutput{Found: true})
			}
			// On Err the write may or may not have taken effect: leave
			// the op incomplete, which permits both.
		case roll < w.ReadPct+w.UpsertPct+w.RMWPct:
			d := rng.Uint64()%w.RMWMax + 1
			id := log.Begin(KVInput{Kind: KVRMW, Key: k, Arg: d})
			st, _ := sess.RMW(key, u64le(d), &pendingCtx{id: id})
			switch st {
			case faster.Pending:
				inFlight++
			case faster.OK:
				log.End(id, KVOutput{})
			}
		default:
			id := log.Begin(KVInput{Kind: KVDelete, Key: k})
			st, _ := sess.Delete(key)
			switch st {
			case faster.OK:
				log.End(id, KVOutput{Found: true})
			case faster.NotFound:
				log.End(id, KVOutput{})
			}
		}
		if inFlight >= w.PendingBatch {
			drain(true)
		} else if inFlight > 0 && rng.Intn(4) == 0 {
			drain(false)
		}
	}
	drain(true)
	sess.Close()
}

// asyncDone pairs an io-pool completion with its history entry; the
// done callback (a worker goroutine) only enqueues, and the client
// goroutine records — ClientLog stays single-writer.
type asyncDone struct {
	pc  *pendingCtx
	res faster.Result
}

// runAsyncClient is runClient for Workload.AsyncIO: reads and RMWs go
// through the store's io-worker pool and complete out of band; upserts
// and deletes run on the client's session as usual. The invoke/response
// interval of a pooled op spans submit to delivery, which is exactly
// the pool's linearizability surface.
func runAsyncClient(store Target, clientID int, log *ClientLog, rng *rand.Rand, w Workload) {
	sess := store.NewSession()
	resCh := make(chan asyncDone, w.Ops+1)
	inFlight := 0

	record := func(d asyncDone) {
		inFlight--
		finishPending(log, d.pc, d.res)
	}
	drain := func(wait bool) {
		if wait && inFlight > 0 {
			// Park while blocked: an unparked session pins its epoch,
			// which would stall the very flush/compact drains the pooled
			// ops are waiting on — a distributed deadlock.
			sess.Park()
			d := <-resCh
			sess.Unpark()
			record(d)
		}
		for {
			select {
			case d := <-resCh:
				record(d)
			default:
				return
			}
		}
	}
	deadline := func() time.Time {
		if w.AsyncDeadline <= 0 {
			return time.Time{}
		}
		return time.Now().Add(w.AsyncDeadline)
	}

	total := w.ReadPct + w.UpsertPct + w.RMWPct + w.DeletePct
	for n := 0; n < w.Ops; n++ {
		if w.Interleave != nil {
			w.Interleave(clientID, n)
		}
		k := uint64(rng.Int63n(int64(w.Keys))) + 1
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, k)
		roll := rng.Intn(total)
		switch {
		case roll < w.ReadPct:
			id := log.Begin(KVInput{Kind: KVRead, Key: k})
			pc := &pendingCtx{id: id}
			err := store.SubmitRead(key, nil, deadline(), nil,
				func(res faster.Result) { resCh <- asyncDone{pc: pc, res: res} })
			if err != nil {
				log.Drop(id) // never admitted: observed nothing
			} else {
				inFlight++
			}
		case roll < w.ReadPct+w.UpsertPct:
			v := rng.Uint64()%1000 + 1
			id := log.Begin(KVInput{Kind: KVUpsert, Key: k, Arg: v})
			if st, _ := sess.Upsert(key, u64le(v)); st == faster.OK {
				log.End(id, KVOutput{Found: true})
			}
		case roll < w.ReadPct+w.UpsertPct+w.RMWPct:
			d := rng.Uint64()%w.RMWMax + 1
			id := log.Begin(KVInput{Kind: KVRMW, Key: k, Arg: d})
			pc := &pendingCtx{id: id}
			err := store.SubmitRMW(key, u64le(d), deadline(), nil,
				func(res faster.Result) { resCh <- asyncDone{pc: pc, res: res} })
			if err != nil {
				log.Drop(id) // never admitted: cannot have applied
			} else {
				inFlight++
			}
		default:
			id := log.Begin(KVInput{Kind: KVDelete, Key: k})
			switch st, _ := sess.Delete(key); st {
			case faster.OK:
				log.End(id, KVOutput{Found: true})
			case faster.NotFound:
				log.End(id, KVOutput{})
			}
		}
		if inFlight >= w.PendingBatch {
			drain(true)
		} else if inFlight > 0 && rng.Intn(4) == 0 {
			drain(false)
		}
	}
	sess.Park()
	for inFlight > 0 {
		record(<-resCh)
	}
	sess.Unpark()
	sess.Close()
}

// runBatchClient is runClient for Workload.Batch > 1: the same seeded
// op mix, issued through ExecBatch in mixed-kind windows. Each slot is
// Begin'd as the window is assembled and End'd from its per-slot
// Status after the batch call, so its history interval brackets the
// batch execution; slots that go Pending complete through the ordinary
// CompletePending drain, matched by the same pendingCtx.
func runBatchClient(store Target, clientID int, log *ClientLog, rng *rand.Rand, w Workload) {
	sess := store.NewSession()
	inFlight := 0

	drain := func(wait bool) {
		for _, res := range sess.CompletePending(wait) {
			pc, ok := res.Ctx.(*pendingCtx)
			if !ok {
				continue // not one of ours (defensive)
			}
			inFlight--
			finishPending(log, pc, res)
		}
	}

	ops := make([]faster.BatchOp, 0, w.Batch)
	kinds := make([]KVKind, 0, w.Batch)

	flush := func() {
		if len(ops) == 0 {
			return
		}
		err := sess.ExecBatch(ops)
		for i := range ops {
			op := &ops[i]
			pc := op.Ctx.(*pendingCtx)
			if err != nil {
				// Whole-batch failure: reads observed nothing; writes are
				// left incomplete (either outcome is legal).
				if kinds[i] == KVRead {
					log.Drop(pc.id)
				}
				continue
			}
			switch kinds[i] {
			case KVRead:
				switch {
				case op.Status == faster.Pending:
					inFlight++
				case op.Status == faster.OK:
					log.End(pc.id, KVOutput{Found: true, Val: binary.LittleEndian.Uint64(pc.out)})
				case op.Status == faster.NotFound:
					log.End(pc.id, KVOutput{})
				default:
					log.Drop(pc.id) // failed read: observed nothing
				}
			case KVUpsert:
				if op.Status == faster.OK {
					log.End(pc.id, KVOutput{Found: true})
				}
				// Err: the write may or may not have landed — incomplete.
			case KVRMW:
				switch op.Status {
				case faster.Pending:
					inFlight++
				case faster.OK:
					log.End(pc.id, KVOutput{})
				}
			case KVDelete:
				switch op.Status {
				case faster.OK:
					log.End(pc.id, KVOutput{Found: true})
				case faster.NotFound:
					log.End(pc.id, KVOutput{})
				}
			}
		}
		ops, kinds = ops[:0], kinds[:0]
	}

	total := w.ReadPct + w.UpsertPct + w.RMWPct + w.DeletePct
	for n := 0; n < w.Ops; n++ {
		if w.Interleave != nil {
			w.Interleave(clientID, n)
		}
		k := uint64(rng.Int63n(int64(w.Keys))) + 1
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, k)
		roll := rng.Intn(total)
		switch {
		case roll < w.ReadPct:
			out := make([]byte, 8)
			id := log.Begin(KVInput{Kind: KVRead, Key: k})
			ops = append(ops, faster.BatchOp{Kind: faster.BatchRead, Key: key,
				Output: out, Ctx: &pendingCtx{id: id, out: out}})
			kinds = append(kinds, KVRead)
		case roll < w.ReadPct+w.UpsertPct:
			v := rng.Uint64()%1000 + 1
			id := log.Begin(KVInput{Kind: KVUpsert, Key: k, Arg: v})
			ops = append(ops, faster.BatchOp{Kind: faster.BatchUpsert, Key: key,
				Value: u64le(v), Ctx: &pendingCtx{id: id}})
			kinds = append(kinds, KVUpsert)
		case roll < w.ReadPct+w.UpsertPct+w.RMWPct:
			d := rng.Uint64()%w.RMWMax + 1
			id := log.Begin(KVInput{Kind: KVRMW, Key: k, Arg: d})
			ops = append(ops, faster.BatchOp{Kind: faster.BatchRMW, Key: key,
				Value: u64le(d), Ctx: &pendingCtx{id: id}})
			kinds = append(kinds, KVRMW)
		default:
			id := log.Begin(KVInput{Kind: KVDelete, Key: k})
			ops = append(ops, faster.BatchOp{Kind: faster.BatchDelete, Key: key,
				Ctx: &pendingCtx{id: id}})
			kinds = append(kinds, KVDelete)
		}
		if len(ops) >= w.Batch {
			flush()
		}
		if inFlight >= w.PendingBatch {
			drain(true)
		} else if inFlight > 0 && rng.Intn(4) == 0 {
			drain(false)
		}
	}
	flush()
	drain(true)
	sess.Close()
}

// finishPending records the completion of an asynchronous operation.
func finishPending(log *ClientLog, pc *pendingCtx, res faster.Result) {
	switch res.Kind {
	case "read":
		switch res.Status {
		case faster.OK:
			out := res.Output
			if out == nil {
				out = pc.out
			}
			log.End(pc.id, KVOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
		case faster.NotFound:
			log.End(pc.id, KVOutput{})
		default:
			log.Drop(pc.id) // failed read: observed nothing
		}
	case "rmw":
		if res.Status == faster.OK {
			log.End(pc.id, KVOutput{})
		}
		// Err: leave incomplete (the update may have been published).
	default:
		panic(fmt.Sprintf("linearize: unexpected pending result kind %q", res.Kind))
	}
}

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// MarkCrashWindow rewrites a pre-crash history for a checkpoint/recover
// check: every operation whose response was observed at or after
// checkpointStart (the recorder timestamp drawn just before Checkpoint
// was invoked) is re-marked Incomplete, because the checkpoint's t2 cut
// may or may not contain its effect. Operations acknowledged before the
// checkpoint began are strictly below t2 on the log and must survive.
//
// Post-recovery observations are then appended on the same recorder
// clock; checking the combined history verifies the recovered state is a
// prefix-consistent cut of some linearization, per key. (Cross-key cut
// atomicity is not asserted — per-key partitioning cannot see it — which
// matches the store's guarantee: the cut point t2 is a single log
// address, but per-key verification is what stays tractable.)
func MarkCrashWindow(history []Op, checkpointStart int64) []Op {
	out := make([]Op, len(history))
	for i, op := range history {
		if op.Return >= checkpointStart {
			op.Return = Incomplete
			op.Output = nil
		}
		out[i] = op
	}
	return out
}

// PruneCrashWindow is MarkCrashWindow for callers that also timestamped
// the checkpoint's completion. Beyond the incomplete-marking, it removes
// two classes of crash-window operations whose linearization choice is
// forced, which keeps the checker's search tractable when a slow
// machine widens the window to dozens of operations:
//
//   - crash-marked reads: their observation was erased (it may reflect
//     effects the cut discarded) and they change nothing, so every
//     linearization position is equivalent;
//   - operations *invoked* at or after checkpointEnd: the checkpoint's
//     t2 was captured before Checkpoint returned, so their effects sit
//     above the cut and recovery discards them with certainty —
//     "never linearizes" is their only consistent choice, and dropping
//     them just commits to it.
//
// Inputs of type KVInput and EOInput are understood; other input types
// are never dropped, only marked.
func PruneCrashWindow(history []Op, checkpointStart, checkpointEnd int64) []Op {
	marked := MarkCrashWindow(history, checkpointStart)
	out := marked[:0]
	for _, op := range marked {
		if op.Return == Incomplete {
			if op.Call >= checkpointEnd {
				continue
			}
			switch in := op.Input.(type) {
			case KVInput:
				if in.Kind == KVRead {
					continue
				}
			case EOInput:
				if in.Kind == KVRead || in.Dup {
					continue
				}
			}
		}
		out = append(out, op)
	}
	return out
}
