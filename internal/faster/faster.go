// Package faster is a from-scratch Go implementation of the FASTER
// concurrent key-value store (Chandramouli et al., SIGMOD 2018).
//
// A Store combines the latch-free hash index of Section 3 with a record
// log (Sections 4-6): the HybridLog, its append-only configuration, or,
// for the in-memory store, a HybridLog over a device.Null whose ring holds
// all the data. It exposes the paper's runtime interface: Read, Upsert, RMW
// (read-modify-write) and Delete, plus CompletePending for continuing
// operations that went asynchronous on a storage miss.
//
// All operations are issued through a Session, which owns an epoch-table
// slot and must be refreshed periodically — the package does this
// automatically every RefreshInterval operations, mirroring §2.5.
package faster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/xhash"
)

// Status reports the outcome of a store operation.
type Status int

const (
	// OK means the operation completed.
	OK Status = iota
	// NotFound means the key does not exist (reads and deletes).
	NotFound
	// Pending means the operation went asynchronous (storage I/O or
	// fuzzy-region deferral); it completes via CompletePending.
	Pending
	// Err means the operation failed; see the accompanying error.
	Err
	// WouldBlock means the operation needed storage I/O (or a fuzzy-region
	// deferral) but the session is resident-only (SetResidentOnly): nothing
	// was issued and no state changed. The caller routes the operation to
	// the store's io-worker pool (SubmitRead/SubmitRMW) instead of letting
	// this goroutine block on the miss.
	WouldBlock
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case NotFound:
		return "NOT_FOUND"
	case Pending:
		return "PENDING"
	case Err:
		return "ERROR"
	case WouldBlock:
		return "WOULD_BLOCK"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config configures a Store.
type Config struct {
	// IndexBuckets is the initial number of hash buckets; the paper
	// defaults to #keys/2.
	IndexBuckets uint64
	// TagBits configures the index tag width (ablation §7.2.2); 0 means
	// the default (14).
	TagBits uint

	// PageBits, BufferPages, MutableFraction and Mode configure the
	// HybridLog (see hlog.Config). MutableFraction defaults to 0.9, the
	// paper's recommended 90:10 split. Mode is hlog.ModeHybrid (the zero
	// value) or hlog.ModeAppendOnly.
	PageBits        uint
	BufferPages     int
	MutableFraction float64
	Mode            hlog.Mode

	// Device stores the log. Required. The in-memory store of §4 is a
	// hybrid log over device.NewNull() with MutableFraction 1 and enough
	// BufferPages to hold its data: nothing it writes is kept, so it must
	// never evict, and it cannot checkpoint.
	Device device.Device

	// Ops supplies the user read/update logic. Required.
	Ops ValueOps

	// CRDT enables delta records for RMW in the fuzzy region (§6.3).
	// Requires Ops to implement MergeOps.
	CRDT bool

	// MaxSessions bounds concurrently active sessions (epoch slots).
	// Default 64.
	MaxSessions int
	// RefreshInterval is the number of operations between automatic
	// epoch refreshes (paper: 256).
	RefreshInterval int

	// CompactionThreshold, when > 0, enables background compaction: a
	// maintenance goroutine watches the reclaimable region
	// [BeginAddress, SafeReadOnlyAddress) and, once it exceeds this many
	// bytes, compacts roughly the older half of it (see Store.Compact).
	CompactionThreshold uint64

	// IOWorkers sizes the io-worker pool that completes resident-only
	// misses out of band (SubmitRead/SubmitRMW). Size it to the device's
	// useful parallelism; default 4. The pool starts lazily on the first
	// Submit, so stores that never use it pay nothing.
	IOWorkers int
	// IOQueueDepth bounds the pending-I/O admission queue shared by the
	// io-workers. A full queue sheds new submissions with ErrIOQueueFull
	// instead of queuing unboundedly. Default 16 * IOWorkers.
	IOQueueDepth int

	// ReadCacheBytes, when > 0, enables the latch-free record read cache
	// (readcache.go): cold reads completed from storage are copied into a
	// second, small append-only hlog.Log and the index entry is redirected
	// to the cached copy, so repeated reads of the same cold record skip
	// the device. The cache is volatile — checkpoints and recovery never
	// depend on it. Its pages are 512 B to 64 KiB, at least 4 where the
	// budget allows, and the budget rounds down to a power-of-two number
	// of them (4 MiB and 8 MiB are exact). A store whose data fits its
	// ring never reads the device, so its cache stays empty.
	ReadCacheBytes uint64

	// ReadRetry bounds retries of device reads (pending records and
	// scans: recovery, compaction); the zero value selects
	// retry.DefaultRead(). Set MaxAttempts to 1 to disable retries (every
	// device error surfaces immediately). The HybridLog retries every
	// device read and write, classifying errors with device.Classify.
	ReadRetry retry.Policy
	// WriteRetry bounds retries of page-flush writes; the zero value
	// selects retry.DefaultWrite(). When the budget is exhausted (or a
	// permanent failure is classified) the log tail is poisoned and the
	// store degrades to read-only instead of hanging.
	WriteRetry retry.Policy
}

func (c *Config) setDefaults() error {
	if c.Ops == nil {
		return errors.New("faster: Config.Ops is required")
	}
	if c.IndexBuckets == 0 {
		c.IndexBuckets = 1 << 16
	}
	if c.PageBits == 0 {
		c.PageBits = 22 // 4 MB pages, as in §7.4.1
	}
	if c.BufferPages == 0 {
		c.BufferPages = 32
	}
	if c.MutableFraction == 0 {
		c.MutableFraction = 0.9
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 256
	}
	if c.IOWorkers <= 0 {
		c.IOWorkers = 4
	}
	if c.IOQueueDepth <= 0 {
		c.IOQueueDepth = 16 * c.IOWorkers
	}
	if c.CRDT {
		if _, ok := c.Ops.(MergeOps); !ok {
			return errors.New("faster: CRDT requires Ops to implement MergeOps")
		}
	}
	return nil
}

// Stats aggregates store-level counters. Fuzzy and pending counters feed
// the Fig 12b / Fig 13 experiments.
type Stats struct {
	Operations   uint64 // user operations: reads, upserts, RMWs and deletes
	FuzzyRMWs    uint64 // RMWs deferred because the record was fuzzy, once each
	PendingIOs   uint64 // operations that went to storage
	DeltaRecords uint64 // CRDT delta records appended
	InPlace      uint64 // updates applied in place
	Appends      uint64 // records appended (RCU, inserts, tombstones)
	FailedCAS    uint64 // lost index compare-and-swaps (retries)
}

// sessionStats is one session's block of hot-path counters. Every
// operation bumps at least two counters; when they were store-global
// atomics the resulting cache-line ping-pong dominated multi-core
// scaling (-cpu 16), so each live session gets a private block and is
// its only writer. The fields are still atomics because Stats() and
// the metrics scrapers read them from other goroutines.
//
// Blocks are recycled across sessions without zeroing: all counters
// are monotone, so aggregation sums every block ever handed out (the
// registry is bounded by the peak number of concurrent sessions).
type sessionStats struct {
	reads        atomic.Uint64
	upserts      atomic.Uint64
	rmws         atomic.Uint64
	deletes      atomic.Uint64
	inPlace      atomic.Uint64
	appends      atomic.Uint64
	rcuCopies    atomic.Uint64
	failedCAS    atomic.Uint64
	fuzzyRMWs    atomic.Uint64
	deltaRecords atomic.Uint64
	pendingIOs   atomic.Uint64
	_            [128 - 11*8]byte // round up to two cache lines
}

// statTotals is the sum of every sessionStats block.
type statTotals struct {
	reads, upserts, rmws, deletes          uint64
	inPlace, appends, rcuCopies, failedCAS uint64
	fuzzyRMWs, deltaRecords, pendingIOs    uint64
}

func (s *Store) acquireSessionStats() *sessionStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if n := len(s.statsFree); n > 0 {
		b := s.statsFree[n-1]
		s.statsFree = s.statsFree[:n-1]
		return b
	}
	b := new(sessionStats)
	s.statsAll = append(s.statsAll, b)
	return b
}

func (s *Store) releaseSessionStats(b *sessionStats) {
	s.statsMu.Lock()
	s.statsFree = append(s.statsFree, b)
	s.statsMu.Unlock()
}

func (s *Store) sumStats() statTotals {
	var t statTotals
	s.statsMu.Lock()
	blocks := s.statsAll
	s.statsMu.Unlock()
	for _, b := range blocks {
		t.reads += b.reads.Load()
		t.upserts += b.upserts.Load()
		t.rmws += b.rmws.Load()
		t.deletes += b.deletes.Load()
		t.inPlace += b.inPlace.Load()
		t.appends += b.appends.Load()
		t.rcuCopies += b.rcuCopies.Load()
		t.failedCAS += b.failedCAS.Load()
		t.fuzzyRMWs += b.fuzzyRMWs.Load()
		t.deltaRecords += b.deltaRecords.Load()
		t.pendingIOs += b.pendingIOs.Load()
	}
	return t
}

// Store is a FASTER key-value store instance.
type Store struct {
	cfg   Config
	em    *epoch.Manager
	idx   *index.Index
	log   *hlog.Log
	ops   ValueOps
	merge MergeOps // non-nil iff cfg.CRDT

	health      atomic.Int32                // Health state machine (health.go)
	healthCause atomic.Pointer[healthCause] // first ReadOnly/Failed cause

	// Per-session counter blocks (see sessionStats): statsAll holds every
	// block ever handed out, statsFree the ones whose session closed.
	statsMu   sync.Mutex
	statsAll  []*sessionStats
	statsFree []*sessionStats

	// compactMu serializes compactions (manual and background); ckptBegin
	// is the Begin address of the newest committed checkpoint (0 until
	// one commits) and ckptPins counts, per address, the checkpoints in
	// flight that sampled their Begin at or above it — device truncation
	// passes neither, so recovery can always read every address its
	// checkpoint needs (compact.go).
	compactMu sync.Mutex
	ckptBegin atomic.Uint64
	pinMu     sync.Mutex
	ckptPins  map[hlog.Address]int

	// sessions is the exactly-once session table (sessiontable.go):
	// per-GUID serial frontiers, persisted with every checkpoint.
	sessions *sessionTable

	// Background compaction maintainer (Config.CompactionThreshold).
	maintStop chan struct{}
	maintWG   sync.WaitGroup

	// io-worker pool (iopool.go), started lazily on the first Submit.
	ioOnce sync.Once
	iop    *ioPool

	// Read cache (readcache.go); nil unless Config.ReadCacheBytes > 0.
	rc *readCache

	mx struct {
		pendingDepth      metrics.Gauge     // I/Os issued and not yet returned to the user
		pendingLatency    metrics.Histogram // issue -> completion-queue drain
		healthTransitions metrics.Counter   // health state machine transitions
		compactions       metrics.Counter   // completed Compact runs
		compactedRecords  metrics.Counter   // live records copied forward
		compactedBytes    metrics.Counter   // bytes re-appended by compaction
		reclaimedBytes    metrics.Counter   // log bytes logically reclaimed (begin advances)
		sessionBinds      metrics.Counter   // per-shard bindings (ShardedStore.BindSession)
		serialReplays     metrics.Counter   // duplicate serials answered from the saved reply
		serialFenced      metrics.Counter   // stale/gap/superseded serial submissions rejected

		// io-worker pool (iopool.go).
		ioSubmitted     metrics.Counter   // operations accepted by SubmitRead/SubmitRMW
		ioDelivered     metrics.Counter   // results delivered from a store completion
		ioShedTimeout   metrics.Counter   // sheds: per-op deadline expired
		ioShedQueueFull metrics.Counter   // sheds: admission queue full at submit
		ioQueueDepth    metrics.Gauge     // submissions waiting for a worker
		ioInflight      metrics.Gauge     // operations a worker has issued, not yet resolved
		ioQueueWait     metrics.Histogram // submit -> worker pickup
		ioService       metrics.Histogram // worker pickup -> result delivery
	}

	closed  atomic.Bool
	closeMu sync.Mutex
	freed   bool // under closeMu: Close released the log, cache and index
}

// Open creates a Store from cfg.
func Open(cfg Config) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// Epoch-table headroom: the session cap, the io-workers (each owns a
	// session), plus slack for maintenance/recovery goroutines.
	em := epoch.New(cfg.MaxSessions + cfg.IOWorkers + 8)
	idx, err := index.New(index.Config{InitialBuckets: cfg.IndexBuckets, TagBits: cfg.TagBits})
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, em: em, idx: idx, ops: cfg.Ops, sessions: newSessionTable()}
	log, err := hlog.New(hlog.Config{
		PageBits:        cfg.PageBits,
		BufferPages:     cfg.BufferPages,
		MutableFraction: cfg.MutableFraction,
		Mode:            cfg.Mode,
		Device:          cfg.Device,
		Epoch:           em,
		ReadRetry:       cfg.ReadRetry,
		WriteRetry:      cfg.WriteRetry,
		// A retried flush or read means the device is limping: Degraded.
		// A poisoned tail means the write path is gone: ReadOnly. Reads
		// keep serving the resident region and flushed pages either way.
		OnRetry:        func(err error) { s.raiseHealth(Degraded, err) },
		OnWriteFailure: func(err error) { s.raiseHealth(ReadOnly, err) },
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	if cfg.CRDT {
		s.merge = cfg.Ops.(MergeOps)
	}
	if cfg.ReadCacheBytes > 0 {
		if s.rc, err = newReadCache(s, cfg.ReadCacheBytes); err != nil {
			log.Close()
			return nil, err
		}
	}
	if cfg.CompactionThreshold > 0 {
		s.maintStop = make(chan struct{})
		s.maintWG.Add(1)
		go s.maintainerLoop()
	}
	return s, nil
}

// Log exposes the underlying HybridLog (log analytics, experiments).
func (s *Store) Log() *hlog.Log { return s.log }

// MaxSessions returns the configured session cap (epoch-table slots).
// Callers that pool sessions — the network front-end — size their pools
// against this so StartSession can never exhaust the epoch table.
func (s *Store) MaxSessions() int { return s.cfg.MaxSessions }

// Index exposes the underlying hash index (experiments, tests).
func (s *Store) Index() *index.Index { return s.idx }

// Epoch exposes the store's epoch manager.
func (s *Store) Epoch() *epoch.Manager { return s.em }

// Stats returns a snapshot of the store counters (summed across every
// session's counter block, live and closed).
func (s *Store) Stats() Stats {
	t := s.sumStats()
	return Stats{
		Operations:   t.reads + t.upserts + t.rmws + t.deletes,
		FuzzyRMWs:    t.fuzzyRMWs,
		PendingIOs:   t.pendingIOs,
		DeltaRecords: t.deltaRecords,
		InPlace:      t.inPlace,
		Appends:      t.appends,
		FailedCAS:    t.failedCAS,
	}
}

// GrowIndex doubles the hash index on the fly (Appendix B). The calling
// goroutine must not hold an active session.
func (s *Store) GrowIndex() error { return s.idx.Grow(s.em) }

// TruncateUntil garbage-collects the log prefix below addr
// (expiration-based GC, Appendix C). Index entries pointing below the new
// begin address are dropped lazily as operations encounter them. The
// begin advance is epoch-safe (no thread can still issue reads below it
// when the device range is freed), and device truncation is held back to
// the newest committed checkpoint's Begin so recovery stays possible; the
// deferred range is freed when the next checkpoint commits. addr should
// be a record boundary (page-aligned addresses always are) or future
// scans and compactions from the new begin will misparse. The calling
// goroutine must not hold an active (unparked) session.
func (s *Store) TruncateUntil(addr hlog.Address) error {
	if _, err := s.log.ShiftBeginAddress(addr, nil); err != nil {
		return err
	}
	return s.log.ApplyDeviceTruncation(s.deviceTruncateLimit(addr))
}

// deviceTruncateLimit clamps a device truncation target to the newest
// committed checkpoint's Begin (no checkpoint yet = unconstrained) and to
// every in-flight checkpoint's pin: recovery reads the log from its
// checkpoint's Begin, so storage below that must survive until a newer
// checkpoint commits.
func (s *Store) deviceTruncateLimit(addr hlog.Address) hlog.Address {
	if cb := s.ckptBegin.Load(); cb != 0 && cb < addr {
		addr = cb
	}
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	for pin := range s.ckptPins {
		addr = min(addr, pin)
	}
	return addr
}

// pinDeviceTruncation holds device truncation at the current begin
// address until release is called. A checkpoint pins before it samples
// its Begin: a truncation that read the pins first had already shifted
// begin, so the sample lands at or above it; one that reads them after
// stops at the pin. Without the pin a compaction could free the span
// below its new begin while a checkpoint whose Begin lies in that span
// is still writing its meta. release is idempotent.
func (s *Store) pinDeviceTruncation() (release func()) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	at := s.log.BeginAddress()
	if s.ckptPins == nil {
		s.ckptPins = map[hlog.Address]int{}
	}
	s.ckptPins[at]++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.pinMu.Lock()
			defer s.pinMu.Unlock()
			if s.ckptPins[at]--; s.ckptPins[at] == 0 {
				delete(s.ckptPins, at)
			}
		})
	}
}

// DeviceStoredBytes reports how many bytes the configured device
// currently retains, when the device can tell (the in-memory device
// frees truncated extents; file devices only track a watermark). ok is
// false when the device has no such notion.
func (s *Store) DeviceStoredBytes() (uint64, bool) {
	if src, can := s.cfg.Device.(interface{ StoredBytes() uint64 }); can {
		return src.StoredBytes(), true
	}
	return 0, false
}

// hashKey computes the index hash for key.
func hashKey(key []byte) uint64 { return xhash.Bytes(key) }

// ErrSessionsOpen is returned by Close while sessions are still open.
var ErrSessionsOpen = errors.New("faster: close with sessions still open")

// Close shuts the store down and frees its memory: the log's frames once
// the device has called back every flush write, then the read cache and
// the index. Every session must be closed first. While one is still
// registered Close stops the background maintainer and the io-worker pool
// but frees nothing — an open session may still dereference log, cache or
// index memory — and returns ErrSessionsOpen; a later Close, once the
// sessions are gone, finishes the job.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.freed {
		return nil
	}
	if !s.closed.Swap(true) {
		if s.maintStop != nil {
			close(s.maintStop)
			s.maintWG.Wait()
		}
		if s.iop != nil {
			s.iop.shutdown()
		}
	}
	if n := s.em.Registered(); n > 0 {
		return fmt.Errorf("%w: %d registered", ErrSessionsOpen, n)
	}
	// With no guard left every pending epoch action is safe: this runs
	// them all, including frame closes and the free of an index table
	// retired by Grow, before the memory they touch goes away.
	for s.em.PendingActions() > 0 {
		s.em.Drain()
	}
	err := s.log.Close()
	s.rc.free()
	s.idx.Close()
	s.freed = true
	return err
}
