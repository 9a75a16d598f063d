package faster

import (
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"strings"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/xhash"
)

// Sharding: N fully independent stores — each with its own hash index,
// HybridLog, epoch domain, io-worker pool and checkpoint generation —
// behind one facade that routes every key by a hash split. Because
// the shards share nothing, per-shard flushes, compactions, epoch drains
// and checkpoints never serialize against each other; a poisoned device
// degrades one shard's health ladder while its siblings keep serving.
//
// Two pieces need genuine cross-shard coordination:
//
//   - Exactly-once serials. A connection's serial stream scatters over
//     shards with its keys, so each shard's session table observes an
//     ascending *subsequence*; the stream rule lives in ShardedToken,
//     which sees the whole stream. The connection frontier is the
//     maximum acked serial over shards — sound only because the sharded
//     checkpoint cuts every shard at one global serial barrier (see
//     Checkpoint below).
//
//   - Checkpoints. Each generation is a directory of per-shard
//     checkpoints committed atomically by a top-level manifest
//     (checkpoint.go, which a flat Store shares as one shard). The
//     serial cuts of all shards are taken while holding every shard's
//     cut lock (in ascending shard order, the same order stamped windows
//     acquire them), so no serial can commit on one shard between two
//     shards' cuts: for any connection, the set of serials covered by
//     the generation is a prefix of its stream, and max-over-shards of
//     the recovered acked frontiers is exactly the newest serial of that
//     prefix. Recovery is all-or-nothing per generation: if any shard of
//     the manifest's generation fails to load, the whole ensemble falls
//     back to the previous manifest — never mixing generations, which
//     would tear the barrier invariant.

// ShardedConfig describes a sharded store.
type ShardedConfig struct {
	// Shards is the number of independent shards (default 1).
	Shards int
	// Base is the per-shard configuration. Base.Device is used only when
	// NewDevice is nil and Shards == 1; otherwise NewDevice supplies one
	// device per shard (shards must never share a device).
	Base Config
	// NewDevice returns shard i's device. Required for persistent modes
	// with Shards > 1.
	NewDevice func(shard int) device.Device
}

// ShardedStore is the N-shard facade. All methods are safe for
// concurrent use; sessions (StartSession) carry the usual one-goroutine
// contract.
type ShardedStore struct {
	shards []*Store
	// routeTick counts routing decisions for the route-stale-map
	// mutation (mutate builds only).
	routeTick atomic.Uint64
}

// OpenSharded opens cfg.Shards independent stores.
func OpenSharded(cfg ShardedConfig) (*ShardedStore, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	ss := &ShardedStore{shards: make([]*Store, 0, n)}
	for i := 0; i < n; i++ {
		c := cfg.Base
		// ReadCacheBytes is a total budget for the ensemble; each shard
		// gets an equal slice so -shards N doesn't multiply memory use.
		c.ReadCacheBytes = cfg.Base.ReadCacheBytes / uint64(n)
		if cfg.NewDevice != nil {
			c.Device = cfg.NewDevice(i)
		} else if i > 0 {
			ss.closeShards()
			return nil, errors.New("faster: ShardedConfig.NewDevice required for Shards > 1")
		}
		s, err := Open(c)
		if err != nil {
			ss.closeShards()
			return nil, fmt.Errorf("faster: open shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, s)
	}
	return ss, nil
}

// NewShardedFromStores wraps already-open stores (all must share a
// compatible configuration). Ownership transfers: Close closes them.
func NewShardedFromStores(stores []*Store) (*ShardedStore, error) {
	if len(stores) == 0 {
		return nil, errors.New("faster: no stores")
	}
	return &ShardedStore{shards: stores}, nil
}

func (ss *ShardedStore) closeShards() {
	for _, s := range ss.shards {
		s.Close()
	}
}

// NumShards returns the shard count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// Shard exposes shard i for per-shard operations (compaction, metrics,
// direct sessions in tests).
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// ShardFor returns the shard index owning key.
func (ss *ShardedStore) ShardFor(key []byte) int { return ss.shardFor(hashKey(key)) }

// shardFor splits the hash space into len(ss.shards) equal ranges of a
// re-mix of h. The index takes its bucket from h's low bits and its tag
// from h's top bits; routing on h itself would leave each shard a slice
// of one of them, so the re-mix decorrelates the shard from both.
func (ss *ShardedStore) shardFor(h uint64) int {
	n := uint64(len(ss.shards))
	if n == 1 {
		return 0
	}
	if mutationsEnabled && mutRouteStale() && ss.routeTick.Add(1)%4 == 0 {
		// The seeded stale-router bug: every fourth routing decision
		// splits as if there were one shard fewer.
		n--
	}
	hi, _ := bits.Mul64(xhash.Uint64(h), n)
	return int(hi)
}

// MaxSessions is the number of concurrent sharded sessions the store
// supports — each one holds a session on every shard.
func (ss *ShardedStore) MaxSessions() int {
	m := ss.shards[0].MaxSessions()
	for _, s := range ss.shards[1:] {
		if n := s.MaxSessions(); n < m {
			m = n
		}
	}
	return m
}

// Health reports the worst shard's health: the ensemble can serve a key
// space only as well as its sickest shard. Per-key decisions should use
// HealthFor / ShardHealth instead, which is what lets one poisoned
// shard degrade alone.
func (ss *ShardedStore) Health() Health {
	worst := Healthy
	for _, s := range ss.shards {
		if h := s.Health(); h > worst {
			worst = h
		}
	}
	return worst
}

// HealthCause returns the cause recorded by the worst shard.
func (ss *ShardedStore) HealthCause() error {
	worst, cause := Healthy, error(nil)
	for _, s := range ss.shards {
		if h := s.Health(); h > worst || (h == worst && cause == nil) {
			worst, cause = h, s.HealthCause()
		}
	}
	return cause
}

// ShardHealth reports shard i's health.
func (ss *ShardedStore) ShardHealth(i int) Health { return ss.shards[i].Health() }

// HealthFor reports the health of the shard owning key.
func (ss *ShardedStore) HealthFor(key []byte) Health {
	return ss.shards[ss.ShardFor(key)].Health()
}

// SubmitRead routes an asynchronous read to its key's shard io-pool.
func (ss *ShardedStore) SubmitRead(key, input []byte, deadline time.Time, ctx any, done func(Result)) error {
	return ss.shards[ss.ShardFor(key)].SubmitRead(key, input, deadline, ctx, done)
}

// SubmitRMW routes an asynchronous RMW to its key's shard io-pool.
func (ss *ShardedStore) SubmitRMW(key, input []byte, deadline time.Time, ctx any, done func(Result)) error {
	return ss.shards[ss.ShardFor(key)].SubmitRMW(key, input, deadline, ctx, done)
}

// CompactAll compacts every shard up to its own safe read-only address,
// summing the per-shard stats. Shards compact independently; a failure
// on one shard does not stop the others (first error is returned).
func (ss *ShardedStore) CompactAll() (CompactStats, error) {
	var total CompactStats
	var firstErr error
	for _, s := range ss.shards {
		st, err := s.Compact(s.Log().SafeReadOnlyAddress())
		total.Copied += st.Copied
		total.CopiedBytes += st.CopiedBytes
		total.Skipped += st.Skipped
		total.ReclaimedBytes += st.ReclaimedBytes
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Close closes every shard, returning the first error.
func (ss *ShardedStore) Close() error {
	var firstErr error
	for _, s := range ss.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Sharded sessions
// ---------------------------------------------------------------------------

// ShardedSession mirrors Session over the facade: one underlying
// session per shard, with every operation routed to its key's shard.
// Exactly one goroutine may drive it at a time.
type ShardedSession struct {
	ss     *ShardedStore
	group  completionGroup // members: one sub-session per shard
	closed bool            // Close ran: the subs' guards are released
	// batch scratch, reused across ExecBatch calls
	groups  [][]BatchOp
	origIdx [][]int
	errs    []error
	fan     sync.WaitGroup
}

// Epoch discipline: the subs are a completionGroup, so a sub-session is
// unparked only while it runs an operation or a completion pass. Its
// siblings are idle meanwhile; left unparked they would pin stale epochs
// on their shards, and two clients blocked in different shards' flush
// waits would stall each other's drains forever (A waits on shard 0
// pinning shard 1, B waits on shard 1 pinning shard 0).

// StartSession opens a session on every shard. Each sub-session starts
// parked; routed operations unpark exactly one for their duration.
func (ss *ShardedStore) StartSession() *ShardedSession {
	subs := make([]*Session, len(ss.shards))
	for i, s := range ss.shards {
		subs[i] = s.StartSession()
		subs[i].Park()
	}
	return &ShardedSession{ss: ss, group: newCompletionGroup(subs),
		groups: make([][]BatchOp, len(ss.shards)), origIdx: make([][]int, len(ss.shards)),
		errs: make([]error, len(ss.shards))}
}

// Close completes every pending operation and closes every sub-session.
// A second Close does nothing.
func (sess *ShardedSession) Close() error {
	if sess.closed {
		return nil
	}
	sess.CompletePending(true)
	sess.closed = true
	var firstErr error
	for _, sub := range sess.group.members {
		if err := sub.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SetResidentOnly applies to every shard session.
func (sess *ShardedSession) SetResidentOnly(on bool) {
	for _, sub := range sess.group.members {
		sub.SetResidentOnly(on)
	}
}

// Park is a no-op, as idle sub-sessions are parked already; it lets
// callers treat sharded and flat sessions uniformly around blocking waits.
func (sess *ShardedSession) Park() {}

// Unpark mirrors Park.
func (sess *ShardedSession) Unpark() {}

// subFor returns the session of the shard owning key.
func (sess *ShardedSession) subFor(key []byte) *Session {
	return sess.group.members[sess.ss.ShardFor(key)]
}

// Read routes to the key's shard.
func (sess *ShardedSession) Read(key, input, output []byte, ctx any) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	sub := sess.subFor(key)
	sub.Unpark()
	st, err := sub.Read(key, input, output, ctx)
	sub.Park()
	return st, err
}

// Upsert routes to the key's shard.
func (sess *ShardedSession) Upsert(key, value []byte) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	sub := sess.subFor(key)
	sub.Unpark()
	st, err := sub.Upsert(key, value)
	sub.Park()
	return st, err
}

// RMW routes to the key's shard.
func (sess *ShardedSession) RMW(key, input []byte, ctx any) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	sub := sess.subFor(key)
	sub.Unpark()
	st, err := sub.RMW(key, input, ctx)
	sub.Park()
	return st, err
}

// Delete routes to the key's shard.
func (sess *ShardedSession) Delete(key []byte) (Status, error) {
	if sess.closed {
		return Err, ErrSessionClosed
	}
	sub := sess.subFor(key)
	sub.Unpark()
	st, err := sub.Delete(key)
	sub.Park()
	return st, err
}

// CompletePending drains completions from every shard session through
// the group's one loop: with wait set it cycles across all shards until
// none holds an outstanding operation, never blocking inside any single
// shard's wait, and sleeps between cycles on the waker the subs share.
// A closed session returns nothing.
func (sess *ShardedSession) CompletePending(wait bool) []Result {
	out, _ := sess.complete(wait, 0)
	return out
}

// CompletePendingTimeout drains every shard within one shared deadline.
func (sess *ShardedSession) CompletePendingTimeout(d time.Duration) ([]Result, error) {
	return sess.complete(true, time.Now().Add(d).UnixNano())
}

func (sess *ShardedSession) complete(wait bool, deadlineNs int64) ([]Result, error) {
	if sess.closed {
		return nil, nil // Close completed everything and released the guards
	}
	return sess.group.complete(wait, deadlineNs)
}

// ExecBatch splits the window by shard and executes the per-shard
// sub-batches as a concurrent fan-out, rejoining per-slot statuses in
// place. Slot order within a shard is preserved; outputs land in the
// caller's buffers exactly as with Session.ExecBatch. Slots that go
// Pending complete through CompletePending as usual.
func (sess *ShardedSession) ExecBatch(ops []BatchOp) error {
	if sess.closed {
		return ErrSessionClosed
	}
	if len(ops) == 0 {
		return nil
	}
	if len(sess.group.members) == 1 {
		sub := sess.group.members[0]
		sub.Unpark()
		err := sub.ExecBatch(ops)
		sub.Park()
		return err
	}
	groups, origIdx := sess.groups, sess.origIdx
	for i := range groups {
		groups[i] = groups[i][:0]
		origIdx[i] = origIdx[i][:0]
	}
	last := -1
	for i := range ops {
		sh := sess.ss.ShardFor(ops[i].Key)
		last = sh
		groups[sh] = append(groups[sh], ops[i])
		origIdx[sh] = append(origIdx[sh], i)
	}
	// Every other shard's sub-batch runs on a goroutine of its own; the
	// last op's shard runs on this one, so a single-shard window never
	// leaves the caller's goroutine.
	clear(sess.errs)
	for sh := range groups {
		if sh != last && len(groups[sh]) > 0 {
			sess.fan.Add(1)
			go sess.execGroup(sh)
		}
	}
	sess.fan.Add(1)
	sess.execGroup(last)
	sess.fan.Wait()
	var firstErr error
	for sh := range groups {
		if sess.errs[sh] != nil && firstErr == nil {
			firstErr = sess.errs[sh]
		}
		for j, oi := range origIdx[sh] {
			ops[oi].Status = groups[sh][j].Status
			ops[oi].Err = groups[sh][j].Err
			ops[oi].Output = groups[sh][j].Output
		}
	}
	return firstErr
}

// execGroup runs shard sh's sub-batch of the current ExecBatch window.
func (sess *ShardedSession) execGroup(sh int) {
	defer sess.fan.Done()
	sub := sess.group.members[sh]
	sub.Unpark()
	sess.errs[sh] = sub.ExecBatch(sess.groups[sh])
	sub.Park()
}

// ---------------------------------------------------------------------------
// Exactly-once serials
// ---------------------------------------------------------------------------

// ShardedToken is a bound GUID's exactly-once capability, and the one
// home of the serial stream rule (sessiontable.go). A connection's serial
// stream scatters over shards with its keys, so each shard's table sees
// only an ascending subsequence of it; the token sees the whole stream.
// It keeps the connection's committed frontier and, inside a window, the
// admission cursor — the next serial the window may admit — and checks
// every stamped serial against them once:
//
//   - serial == cursor: admitted on its shard's table (SerialApply, or
//     SerialFenced if a newer binding superseded this one);
//   - serial >  cursor: SerialGap, and no table is touched;
//   - serial <  cursor: never applied — SerialReplay if it is its
//     shard's newest committed serial, else SerialStale.
//
// A stamped operation runs inside a window (WindowEnter … WindowExit)
// that brackets admission, execution and commit; the window holds the
// checkpoint cut of each shard it spans shared-locked, so it must be kept
// tight and must not span client round-trips. Exactly one goroutine may
// drive a token.
type ShardedToken struct {
	toks   []*sessionToken
	open   []bool // shards the current window spans
	acked  uint64 // the connection's committed frontier
	cursor uint64 // the next serial the open window admits
	within bool   // a window is open
}

// BindSession binds guid on every shard and fences all previous owners.
// The returned frontier is the connection's resume point — the maximum
// acked serial over shards: every serial at or below it applied exactly
// once, everything above is safe to re-submit. The reply is the saved
// reply of the frontier serial. A flat store gets exactly-once as a
// one-shard ensemble.
func (ss *ShardedStore) BindSession(guid string) (*ShardedToken, uint64, []byte, error) {
	st := &ShardedToken{toks: make([]*sessionToken, len(ss.shards)), open: make([]bool, len(ss.shards))}
	var reply []byte
	for i, s := range ss.shards {
		tok, acked, rep, err := s.bindSession(guid)
		if err != nil {
			return nil, 0, nil, err
		}
		st.toks[i] = tok
		if acked >= st.acked {
			if acked > st.acked || rep != nil {
				reply = rep
			}
			st.acked = acked
		}
	}
	return st, st.acked, reply, nil
}

// WindowEnter opens a stamped window over the given shards — every shard
// a stamped operation of the window routes to; repeats are fine. The
// shards' cut locks are taken in ascending shard order, the order the
// sharded checkpoint barrier takes them in, so a window cannot deadlock
// against a checkpoint.
func (st *ShardedToken) WindowEnter(shards ...int) {
	if st.within {
		panic("faster: nested ShardedToken window")
	}
	for _, sh := range shards {
		st.open[sh] = true
	}
	for sh, open := range st.open {
		if open {
			st.toks[sh].enter()
		}
	}
	st.within = true
	st.cursor = st.acked + 1
}

// Check classifies serial, stamped on an operation whose key routes to
// shard, by the stream rule. On SerialApply the serial is admitted: the
// caller must execute the operation and Commit it, or close the window
// to roll the admission back. On SerialReplay the returned bytes are a
// copy of the saved reply.
func (st *ShardedToken) Check(shard int, serial uint64) (SerialVerdict, []byte) {
	if !st.open[shard] {
		panic("faster: ShardedToken.Check outside its shard's window")
	}
	switch {
	case serial > st.cursor:
		st.toks[shard].s.mx.serialFenced.Inc()
		return SerialGap, nil
	case serial == st.cursor:
		v, _ := st.toks[shard].check(serial, true)
		if v == SerialApply {
			st.cursor++
		}
		return v, nil
	default:
		return st.toks[shard].check(serial, false)
	}
}

// Commit marks the admitted serial's operation complete and saves its
// rendered reply for replay. Serials commit in admission order, one past
// the frontier each; anything else panics (a protocol bug, not a runtime
// condition). Returns false if the token was fenced mid-window.
func (st *ShardedToken) Commit(shard int, serial uint64, reply []byte) bool {
	if !st.open[shard] || serial != st.acked+1 || serial >= st.cursor {
		panic(fmt.Sprintf("faster: commit of serial %d on shard %d with frontier %d cursor %d",
			serial, shard, st.acked, st.cursor))
	}
	if !st.toks[shard].commit(serial, reply) {
		return false
	}
	st.acked = serial
	return true
}

// WindowExit closes the window. Serials admitted but never committed
// (failed operations) are rolled back so the client can retry them.
func (st *ShardedToken) WindowExit() {
	if !st.within {
		panic("faster: WindowExit outside a window")
	}
	for sh := len(st.open) - 1; sh >= 0; sh-- {
		if st.open[sh] {
			st.toks[sh].exit()
			st.open[sh] = false
		}
	}
	st.within = false
}

// Release closes any open window. The durable entries outlive the token.
func (st *ShardedToken) Release() {
	if st.within {
		st.WindowExit()
	}
}

// ---------------------------------------------------------------------------
// Sharded checkpoint: one generation of every shard under one manifest
// ---------------------------------------------------------------------------

// ShardedCheckpointInfo describes a committed sharded checkpoint.
type ShardedCheckpointInfo struct {
	// Seq is the generation sequence number the manifest committed.
	Seq uint64
	// Shards holds each shard's checkpoint bracket.
	Shards []CheckpointInfo
}

// Checkpoint writes one consistent generation: every shard checkpoints
// into dir/gen-<seq>/shard-<i>/, all serial cuts are taken under a
// single global barrier (every shard's cut lock held at once, acquired
// in ascending shard order), and the generation commits atomically by
// the manifest rename (checkpoint.go). A crash anywhere before that
// rename leaves the previous manifest in force — a consistent, if older,
// ensemble.
func (ss *ShardedStore) Checkpoint(dir string) (ShardedCheckpointInfo, error) {
	seq, infos, err := checkpoint(ss.shards, dir)
	if err != nil {
		return ShardedCheckpointInfo{}, err
	}
	return ShardedCheckpointInfo{Seq: seq, Shards: infos}, nil
}

// RecoverSharded reopens a sharded store from its manifest. Recovery is
// all-or-nothing per generation: the manifest's generation loads only
// if every shard recovers and matches its recorded T1; otherwise the
// whole ensemble falls back to the previous manifest. Under the
// skip-shard-fsync mutation the naive per-shard fallback runs instead —
// each shard independently falls back (prev generation, then empty),
// silently mixing generations.
func RecoverSharded(cfg ShardedConfig, dir string) (*ShardedStore, error) {
	n := max(cfg.Shards, 1)
	shardCfg := func(i int) Config {
		c := cfg.Base
		c.ReadCacheBytes = cfg.Base.ReadCacheBytes / uint64(n)
		if cfg.NewDevice != nil {
			c.Device = cfg.NewDevice(i)
		}
		return c
	}
	load := recoverStores
	if mutationsEnabled && mutSkipShardFsync() {
		load = recoverShardsNaive
	}
	stores, err := load(dir, n, shardCfg)
	if err != nil {
		return nil, err
	}
	return NewShardedFromStores(stores)
}

// recoverShardsNaive is the seeded skip-shard-fsync reader: each shard
// independently tries the current generation, then the previous, then
// comes up empty — mixing generations across shards, which silently
// reverts one shard's acked frontiers and data while the connection
// frontier (max over shards) stays high. The exactly-once checker
// refutes the resulting double-applies and lost updates.
func recoverShardsNaive(dir string, n int, shardCfg func(int) Config) ([]*Store, error) {
	var mans []manifest
	for _, name := range manifestNames {
		if man, err := readManifest(filepath.Join(dir, name)); err == nil && len(man.t1s) == n {
			mans = append(mans, man)
		}
	}
	if len(mans) == 0 {
		return nil, errors.New("faster: no manifest")
	}
	stores := make([]*Store, 0, n)
	for i := range n {
		var s *Store
		err := errors.New("faster: no generation")
		for _, man := range mans {
			if s, err = recoverShard(shardCfg(i), dir, man, i); err == nil {
				break
			}
		}
		if err != nil {
			s, err = Open(shardCfg(i))
		}
		if err != nil {
			for _, st := range stores {
				st.Close()
			}
			return nil, err
		}
		stores = append(stores, s)
	}
	return stores, nil
}

// ---------------------------------------------------------------------------
// Sharded metrics
// ---------------------------------------------------------------------------

// ShardedMetrics is a snapshot of every shard's instrumentation.
type ShardedMetrics struct {
	Shards []StoreMetrics
}

// Metrics snapshots every shard.
func (ss *ShardedStore) Metrics() ShardedMetrics {
	m := ShardedMetrics{Shards: make([]StoreMetrics, len(ss.shards))}
	for i, s := range ss.shards {
		m.Shards[i] = s.Metrics()
	}
	return m
}

// Series flattens the ensemble: counters and gauges sum across shards
// under their usual names, latency series (*_ns) are reported per shard
// only (a sum of quantiles means nothing), health takes the worst
// shard, and every shard's full series rides under a shard<i>. prefix.
func (m ShardedMetrics) Series() metrics.Series {
	if len(m.Shards) == 1 {
		return m.Shards[0].Series()
	}
	agg := metrics.Series{}
	for i, sm := range m.Shards {
		s := sm.Series()
		agg.Merge(fmt.Sprintf("shard%d", i), s)
		for k, v := range s {
			if strings.HasSuffix(k, "_ns") {
				continue
			}
			if k == "faster.health" {
				if v > agg[k] {
					agg[k] = v
				}
				continue
			}
			agg[k] += v
		}
	}
	return agg
}
