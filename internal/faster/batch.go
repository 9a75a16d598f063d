package faster

import (
	"errors"
	"sync/atomic"

	"repro/internal/hlog"
	"repro/internal/index"
)

// Batched execution amortizes the per-operation costs that dominate the
// in-memory hot path: the epoch check, the operation counters, the
// writability gate, and — for runs of upserts — the tail reservation.
// A batch carries no transactional semantics: its operations behave as
// if issued back-to-back on the session, so per-key program order is
// preserved but cross-key ordering is unspecified, exactly as for
// concurrent single operations.

// BatchKind selects the operation a BatchOp performs.
type BatchKind uint8

const (
	// BatchRead reads Key into Output (Value is the optional read input).
	BatchRead BatchKind = iota
	// BatchUpsert blindly writes Value under Key.
	BatchUpsert
	// BatchRMW applies the read-modify-write with Value as the input.
	BatchRMW
	// BatchDelete removes Key.
	BatchDelete
)

// BatchOp is one slot of an ExecBatch call. Kind, Key, Value, Output and
// Ctx are inputs; Status and Err are the per-operation outcome. A slot
// whose Status is Pending completes later through CompletePending, with
// Ctx attached to the Result just like a single pending operation.
type BatchOp struct {
	Kind   BatchKind
	Key    []byte
	Value  []byte // upsert value / RMW input / read input
	Output []byte // read destination
	Ctx    any

	Status Status
	Err    error
}

var errBadBatchKind = errors.New("faster: invalid BatchKind")

// batchAppend is one planned record of a batched upsert run: probed in
// phase A, written and published from a shared tail reservation in
// phase B.
type batchAppend struct {
	idx       int          // slot in the run
	h         uint64       // key hash
	expect    hlog.Address // raw index entry observed at probe time (CAS expectation)
	chainHead hlog.Address // underlying hlog chain head (the record's prev)
	overwrite hlog.Address // record superseded by this append (RCU), or invalid
	size      uint32
	addr      hlog.Address // assigned when carved; invalid once its publish CAS lost
}

// ExecBatch executes ops back-to-back with batch-amortized bookkeeping:
// the keys are all hashed up front, the epoch check and operation
// counters are paid once, and consecutive upserts share a single tail
// reservation. Per-operation outcomes land in ops[i].Status/Err;
// Pending slots complete through CompletePending (ExecBatch does not
// drain them). The returned error covers only whole-batch failures.
func (sess *Session) ExecBatch(ops []BatchOp) error {
	if sess.closed {
		return ErrSessionClosed
	}
	if len(ops) == 0 {
		return nil
	}
	sess.batchStart(ops)
	s := sess.s

	// Grouped hash pass: compute every key's hash before any probe, so
	// the probes that follow walk the index without interleaved hashing
	// (the software-prefetch shape of the paper's batched clients).
	n := len(ops)
	if cap(sess.batchHash) < n {
		sess.batchHash = make([]uint64, n)
	}
	hs := sess.batchHash[:n]
	for i := range ops {
		op := &ops[i]
		op.Status, op.Err = OK, nil
		if len(op.Key) == 0 {
			op.Status, op.Err = Err, errKeyEmpty
			hs[i] = 0
			continue
		}
		hs[i] = hashKey(op.Key)
	}

	for i := 0; i < n; {
		op := &ops[i]
		if op.Err != nil {
			i++
			continue
		}
		switch op.Kind {
		case BatchUpsert:
			j := i + 1
			for j < n && ops[j].Kind == BatchUpsert && ops[j].Err == nil {
				j++
			}
			sess.execUpsertRun(ops[i:j], hs[i:j])
			i = j
		case BatchRead:
			j := i + 1
			for j < n && ops[j].Kind == BatchRead && ops[j].Err == nil {
				j++
			}
			if j-i == 1 {
				op.Status, op.Err = sess.readInternal(op.Key, op.Value, op.Output, op.Ctx, hs[i])
			} else {
				sess.execReadRun(ops[i:j], hs[i:j])
			}
			i = j
		case BatchRMW:
			op.Status, op.Err = sess.rmwInternal(op.Key, op.Value, op.Ctx, hs[i])
			i++
		case BatchDelete:
			if err := s.checkWritable(); err != nil {
				op.Status, op.Err = Err, err
			} else {
				op.Status, op.Err = sess.deleteInternal(op.Key, hs[i])
			}
			i++
		default:
			op.Status, op.Err = Err, errBadBatchKind
			i++
		}
	}
	return nil
}

// batchStart is opStart for a whole batch: one refresh check and one
// atomic add per counter, however large the batch.
func (sess *Session) batchStart(ops []BatchOp) {
	n := len(ops)
	var reads, upserts, rmws, deletes uint64
	for i := range ops {
		switch ops[i].Kind {
		case BatchRead:
			reads++
		case BatchUpsert:
			upserts++
		case BatchRMW:
			rmws++
		case BatchDelete:
			deletes++
		}
	}
	if reads > 0 {
		sess.stat.reads.Add(reads)
	}
	if upserts > 0 {
		sess.stat.upserts.Add(upserts)
	}
	if rmws > 0 {
		sess.stat.rmws.Add(rmws)
	}
	if deletes > 0 {
		sess.stat.deletes.Add(deletes)
	}
	sess.opsSince += n
	if sess.opsSince >= sess.s.cfg.RefreshInterval {
		sess.opsSince = 0
		sess.g.Refresh()
	}
}

// execReadRun executes a run of consecutive reads in three passes. The
// probe pass walks the index for every key back-to-back: the probes are
// data-independent loads, so on a working set larger than cache their
// misses overlap in the memory system instead of serializing behind one
// another (the software-prefetch shape of the paper's batched clients).
// The touch pass pulls each chain head's record line the same way, and
// the final pass completes every read against now-warm lines.
func (sess *Session) execReadRun(run []BatchOp, hs []uint64) {
	s := sess.s
	n := len(run)
	if cap(sess.batchEntry) < n {
		sess.batchEntry = make([]index.Entry, n)
		sess.batchAddr = make([]hlog.Address, n)
	}
	ents := sess.batchEntry[:n]
	addrs := sess.batchAddr[:n]
	s.idx.Prefetch(hs)
	for k := range run {
		e, a, ok := s.idx.FindEntry(hs[k])
		if !ok {
			run[k].Status = NotFound // gates the later passes
			continue
		}
		ents[k], addrs[k] = e, a
	}
	head := s.log.HeadAddress()
	for k := range run {
		if run[k].Status != OK {
			continue
		}
		// Touch the chain head's record line (resident iff >= head; the
		// epoch held since the probe keeps it mapped). Cache-tagged
		// addresses live outside the hlog; readAt dereferences them itself.
		if a := addrs[k]; a >= head && !isCacheAddr(a) {
			_ = atomic.LoadUint64(s.headerPtr(a))
		}
	}
	for k := range run {
		op := &run[k]
		if op.Status != OK {
			continue
		}
		op.Status, op.Err = sess.readAt(op.Key, op.Value, op.Output, op.Ctx, ents[k], addrs[k])
	}
}

// execUpsertRun executes a run of consecutive upserts. Phase A probes
// every key (in-place where possible) and plans the appends; phase B
// publishes the planned records from shared tail reservations. An op
// whose key hash matches an already-planned append is deferred to after
// phase B so per-key program order survives the reordering.
func (sess *Session) execUpsertRun(run []BatchOp, hs []uint64) {
	s := sess.s
	if err := s.checkWritable(); err != nil {
		for k := range run {
			run[k].Status, run[k].Err = Err, err
		}
		return
	}
	if len(run) == 1 {
		run[0].Status, run[0].Err = sess.upsertInternal(run[0].Key, run[0].Value, hs[0])
		return
	}

	plan := sess.batchPlan[:0]
	deferred := sess.batchDefer[:0]

	// Grouped warm-up, as in execReadRun: touch every bucket line, then
	// every chain head's record line, with dependency-free loads whose
	// misses overlap. The dependent per-key probes below then run
	// against warm lines.
	n := len(run)
	if cap(sess.batchAddr) < n {
		sess.batchEntry = make([]index.Entry, n)
		sess.batchAddr = make([]hlog.Address, n)
	}
	warm := sess.batchAddr[:n]
	ents := sess.batchEntry[:n]
	s.idx.Prefetch(hs)
	for k := range run {
		e, a, ok := s.idx.FindEntry(hs[k])
		if !ok {
			a = hlog.InvalidAddress
		}
		ents[k], warm[k] = e, a
	}
	head := s.log.HeadAddress()
	for _, a := range warm {
		if a >= head && a != hlog.InvalidAddress && !isCacheAddr(a) {
			_ = atomic.LoadUint64(s.headerPtr(a))
		}
	}

probe:
	for k := range run {
		op := &run[k]
		h := hs[k]
		// Same hash as a planned append (same key implies same hash):
		// that append must publish first, so defer this op past phase B.
		for p := range plan {
			if plan[p].h == h {
				deferred = append(deferred, k)
				continue probe
			}
		}
		for first := true; ; first = false {
			var entry index.Entry
			var raw hlog.Address
			if first && warm[k] != hlog.InvalidAddress {
				// Reuse the warm-up probe: exactly as current as a probe
				// taken here would be (a racing RCU seals the record
				// first, and a stale chain head loses its publish CAS).
				entry, raw = ents[k], warm[k]
			} else {
				entry, raw = s.idx.FindOrCreateEntry(h)
			}
			// The entry may point at a read-cache copy: the CAS expects the
			// raw address, the appended record's prev is the underlying
			// hlog chain head (publishing then invalidates the cached copy
			// RCU-style, same as the single-op path).
			chainHead, _, cached, stale := s.splitProbe(raw)
			if stale {
				continue
			}
			if !cached && chainHead != 0 && chainHead < s.log.BeginAddress() {
				entry.CompareAndDelete(raw)
				continue
			}
			ro := s.log.ReadOnlyAddress()
			laddr, rec, found := s.traceBack(op.Key, chainHead, maxAddr(ro, s.log.HeadAddress()))
			if found && !rec.tombstone() && !rec.delta() && !rec.sealed() && !cached {
				if s.ops.ConcurrentWriter(op.Key, rec.value, op.Value) {
					sess.stat.inPlace.Add(1)
					op.Status = OK
					break
				}
				// Value must grow: seal against racing in-place writers
				// and fall through to the planned append (RCU).
				s.seal(laddr)
			}
			over := hlog.InvalidAddress
			if found {
				over = laddr
			}
			plan = append(plan, batchAppend{
				idx: k, h: h, expect: raw, chainHead: chainHead, overwrite: over,
				size: recordSize(len(op.Key), len(op.Value)),
			})
			break
		}
	}

	// Phase B: one tail reservation per chunk of planned records. The
	// chunk budget keeps the straddle waste bounded — an Allocate span
	// never crosses a page, so a chunk that straddles wastes the rest of
	// the current page as padding.
	pageSize := uint32(1) << s.cfg.PageBits
	chunkCap := pageSize / 4
	if chunkCap > 32<<10 {
		chunkCap = 32 << 10
	}
	for start := 0; start < len(plan); {
		end := start
		var total uint32
		for end < len(plan) && (end == start || total+plan[end].size <= chunkCap) {
			total += plan[end].size
			end++
		}
		sess.publishChunk(run, plan[start:end], total)
		start = end
	}

	// Deferred duplicates: every planned append for their hash has
	// published (or fallen back) by now, so the single-op path sees the
	// batch's latest chain state and program order holds.
	for _, k := range deferred {
		op := &run[k]
		op.Status, op.Err = sess.upsertInternal(op.Key, op.Value, hs[k])
	}

	sess.batchPlan = plan[:0]
	sess.batchDefer = deferred[:0]
}

// publishChunk reserves tail space for a chunk of planned appends with
// one Allocate, carves and writes the records, then publishes each with
// its index CAS in run order. A lost CAS invalidates the batch copy; only
// after the whole chunk is published or invalidated do the losers retry
// through the single-op path, whose Allocate may refresh the epoch and
// let the chunk's page flush (a flush must never copy a record whose
// invalid bit is still to be set). setOverwritten ignores evicted
// addresses.
func (sess *Session) publishChunk(run []BatchOp, chunk []batchAppend, total uint32) {
	s := sess.s
	base, err := s.log.Allocate(total, sess.g)
	if err != nil {
		// No shared reservation (span too large, tail poisoned, ...):
		// degrade to one append per record.
		for i := range chunk {
			p := &chunk[i]
			op := &run[p.idx]
			op.Status, op.Err = sess.upsertInternal(op.Key, op.Value, p.h)
		}
		return
	}
	addr := base
	for i := range chunk {
		p := &chunk[i]
		op := &run[p.idx]
		dst := writeRecord(s.log.Slice(addr)[:p.size], p.chainHead, 0, op.Key, len(op.Value))
		s.ops.SingleWriter(op.Key, dst.value, op.Value)
		p.addr = addr
		addr += hlog.Address(p.size)
	}
	for i := range chunk {
		p := &chunk[i]
		op := &run[p.idx]
		e, cur := s.idx.FindOrCreateEntry(p.h)
		if cur != p.expect || !e.CompareAndSwapAddress(p.expect, p.addr) {
			s.setInvalid(p.addr)
			sess.stat.failedCAS.Add(1)
			p.addr = hlog.InvalidAddress
			continue
		}
		if isCacheAddr(p.expect) {
			s.noteCacheInvalidation()
		}
		sess.stat.appends.Add(1)
		op.Status, op.Err = OK, nil
		if p.overwrite != hlog.InvalidAddress {
			sess.stat.rcuCopies.Add(1)
			s.setOverwritten(p.overwrite)
		}
	}
	for i := range chunk {
		if p := &chunk[i]; p.addr == hlog.InvalidAddress {
			op := &run[p.idx]
			op.Status, op.Err = sess.upsertInternal(op.Key, op.Value, p.h)
		}
	}
}
