package faster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	rmetrics "runtime/metrics"

	"repro/internal/arena"
	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/index"
	"repro/internal/metrics"
)

// StoreMetrics is a point-in-time snapshot of every instrumented layer of
// the store. It is the typed view; Series flattens it into named scalar
// series for the JSON endpoint and text reports.
type StoreMetrics struct {
	// Store-level operation counters.
	Reads     uint64
	Upserts   uint64
	RMWs      uint64
	Deletes   uint64
	RCUCopies uint64 // updates that copied the old value to the tail
	FailedCAS uint64 // lost index compare-and-swaps (retried)
	InPlace   uint64 // updates applied in place
	Appends   uint64 // records appended
	FuzzyRMWs uint64 // RMWs deferred in the fuzzy region

	PendingDepth   int64                     // I/Os outstanding right now
	PendingIssued  uint64                    // I/Os issued in total
	PendingRetries uint64                    // pending-read attempts retried
	PendingLatency metrics.HistogramSnapshot // issue -> completion drain

	// io-worker pool (iopool.go): out-of-band completion of resident-only
	// misses. Sheds are split by reason — a timeout shed is caller
	// impatience, a queue-full shed is admission back-pressure — so queue
	// pressure is observable before it becomes an outage.
	IOSubmitted     uint64                    // operations accepted by Submit*
	IODelivered     uint64                    // results delivered from completions
	IOShedTimeout   uint64                    // sheds: per-op deadline expired
	IOShedQueueFull uint64                    // sheds: admission queue full
	IOQueueDepth    int64                     // submissions waiting for a worker
	IOInflight      int64                     // issued by workers, not yet resolved
	IOQueueWait     metrics.HistogramSnapshot // submit -> worker pickup
	IOService       metrics.HistogramSnapshot // pickup -> delivery

	// Read cache (readcache.go).
	ReadCache ReadCacheMetrics
	// IOCoalescedReads always reads 0: every cold read issues its own
	// fetch. It is kept only because the benchmark module (kvbench)
	// reads it.
	IOCoalescedReads uint64

	// Compaction activity (compact.go). CompactedBytes over ReclaimedBytes
	// is the compaction write amplification.
	Compactions      uint64
	CompactedRecords uint64
	CompactedBytes   uint64
	ReclaimedBytes   uint64

	// Exactly-once session activity (sessiontable.go).
	SessionEntries uint64 // GUIDs tracked in the session table
	SessionBinds   uint64 // attach/resume operations
	SerialReplays  uint64 // duplicate serials answered from the saved reply
	SerialFenced   uint64 // stale/gap/superseded serials rejected

	// Health is the fault-domain state machine (health.go);
	// HealthTransitions counts its upward steps.
	Health            Health
	HealthTransitions uint64

	// Memory accounts the store's off-heap arenas by owner, next to the
	// process's Go heap.
	Memory MemoryMetrics

	Log   hlog.Metrics
	Index index.Metrics
	Epoch epoch.Metrics

	// Device is present when the configured device exposes metrics (all
	// built-in devices do); DeviceKnown reports whether it is meaningful.
	Device      device.Metrics
	DeviceKnown bool
}

// MemoryMetrics is where a store's memory goes. The big structures live
// outside the Go heap (internal/arena) and are listed by owner; resident
// memory can be lower than these sizes, since an arena page costs memory
// only once touched. The process-wide figures are shared by every store
// in the process and are not summed across shards.
type MemoryMetrics struct {
	LogFrames uint64 // hlog page frames
	ReadCache uint64 // read-cache frames
	Index     uint64 // index tables and overflow chunks
	FoldPeak  uint64 // largest compaction fold so far; freed when Compact returns

	ArenaLive    uint64 // process: arena bytes allocated and not freed
	ArenaPeak    uint64 // process: high-water mark of ArenaLive
	ArenaAdvised uint64 // process: live arena bytes advised for huge pages
	ArenaHuge    uint64 // process: anonymous memory on huge pages (0 where unknown)
	GoHeap       uint64 // process: bytes of Go heap objects, live or not yet swept
}

// MemoryMetrics samples the store's arena owners and the process totals.
// Unlike Metrics it scans nothing of the store's; ArenaHuge asks the
// kernel, which walks the process's mappings.
func (s *Store) MemoryMetrics() MemoryMetrics {
	sample := []rmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rmetrics.Read(sample)
	m := MemoryMetrics{
		LogFrames:    s.log.FrameBytes(),
		ReadCache:    s.rc.arenaBytes(),
		Index:        s.idx.ArenaBytes(),
		FoldPeak:     s.foldPeak.Load(),
		ArenaLive:    arena.Live(),
		ArenaPeak:    arena.Peak(),
		ArenaAdvised: arena.Advised(),
		ArenaHuge:    arena.HugeBytes(),
	}
	if sample[0].Value.Kind() == rmetrics.KindUint64 {
		m.GoHeap = sample[0].Value.Uint64()
	}
	return m
}

// Metrics returns a snapshot of all store instrumentation.
func (s *Store) Metrics() StoreMetrics {
	t := s.sumStats()
	m := StoreMetrics{
		Reads:     t.reads,
		Upserts:   t.upserts,
		RMWs:      t.rmws,
		Deletes:   t.deletes,
		RCUCopies: t.rcuCopies,
		FailedCAS: t.failedCAS,
		InPlace:   t.inPlace,
		Appends:   t.appends,
		FuzzyRMWs: t.fuzzyRMWs,

		PendingDepth:   s.mx.pendingDepth.Load(),
		PendingIssued:  t.pendingIOs,
		PendingRetries: s.mx.pendingRetries.Load(),
		PendingLatency: s.mx.pendingLatency.Snapshot(),

		IOSubmitted:     s.mx.ioSubmitted.Load(),
		IODelivered:     s.mx.ioDelivered.Load(),
		IOShedTimeout:   s.mx.ioShedTimeout.Load(),
		IOShedQueueFull: s.mx.ioShedQueueFull.Load(),
		IOQueueDepth:    s.mx.ioQueueDepth.Load(),
		IOInflight:      s.mx.ioInflight.Load(),
		IOQueueWait:     s.mx.ioQueueWait.Snapshot(),
		IOService:       s.mx.ioService.Snapshot(),

		ReadCache: s.rc.metrics(),

		Compactions:      s.mx.compactions.Load(),
		CompactedRecords: s.mx.compactedRecords.Load(),
		CompactedBytes:   s.mx.compactedBytes.Load(),
		ReclaimedBytes:   s.mx.reclaimedBytes.Load(),

		SessionEntries: func() uint64 {
			s.sessions.mu.Lock()
			n := uint64(len(s.sessions.entries))
			s.sessions.mu.Unlock()
			return n
		}(),
		SessionBinds:  s.mx.sessionBinds.Load(),
		SerialReplays: s.mx.serialReplays.Load(),
		SerialFenced:  s.mx.serialFenced.Load(),

		Health:            s.Health(),
		HealthTransitions: s.mx.healthTransitions.Load(),

		Memory: s.MemoryMetrics(),

		Log:   s.log.Metrics(),
		Index: s.idx.Metrics(),
		Epoch: s.em.Metrics(),
	}
	if src, ok := s.cfg.Device.(device.MetricsSource); ok {
		m.Device = src.Metrics()
		m.DeviceKnown = true
	}
	return m
}

// Series flattens the snapshot into named scalar series. Names are stable
// dotted paths (faster.*, hlog.*, index.*, epoch.*, device.*); latency
// histograms expand into .count/.mean_ns/.p50_ns/.p99_ns/.max_ns.
func (m StoreMetrics) Series() metrics.Series {
	s := metrics.Series{
		"faster.reads":           float64(m.Reads),
		"faster.upserts":         float64(m.Upserts),
		"faster.rmws":            float64(m.RMWs),
		"faster.deletes":         float64(m.Deletes),
		"faster.rcu_copies":      float64(m.RCUCopies),
		"faster.failed_cas":      float64(m.FailedCAS),
		"faster.in_place":        float64(m.InPlace),
		"faster.appends":         float64(m.Appends),
		"faster.fuzzy_rmws":      float64(m.FuzzyRMWs),
		"faster.pending_depth":   float64(m.PendingDepth),
		"faster.pending_issued":  float64(m.PendingIssued),
		"faster.pending_retries": float64(m.PendingRetries),
		// 0 healthy, 1 degraded, 2 read-only, 3 failed.
		"faster.health":             float64(m.Health),
		"faster.health_transitions": float64(m.HealthTransitions),

		"faster.compactions":       float64(m.Compactions),
		"faster.compacted_records": float64(m.CompactedRecords),
		"faster.compacted_bytes":   float64(m.CompactedBytes),
		"faster.reclaimed_bytes":   float64(m.ReclaimedBytes),

		"faster.session_entries": float64(m.SessionEntries),
		"faster.session_binds":   float64(m.SessionBinds),
		"faster.serial_replays":  float64(m.SerialReplays),
		"faster.serial_fenced":   float64(m.SerialFenced),
	}
	if m.ReclaimedBytes > 0 {
		s["faster.compaction_write_amp"] = float64(m.CompactedBytes) / float64(m.ReclaimedBytes)
	} else {
		s["faster.compaction_write_amp"] = 0
	}
	s.AddHistogram("faster.pending_latency", m.PendingLatency)

	s["readcache.hits"] = float64(m.ReadCache.Hits)
	s["readcache.misses"] = float64(m.ReadCache.Misses)
	s["readcache.fills"] = float64(m.ReadCache.Fills)
	s["readcache.evictions"] = float64(m.ReadCache.Evictions)
	s["readcache.invalidations"] = float64(m.ReadCache.Invalidations)
	s["readcache.bytes"] = float64(m.ReadCache.Bytes)

	s["faster.io_submitted"] = float64(m.IOSubmitted)
	s["faster.io_delivered"] = float64(m.IODelivered)
	s["faster.io_shed_timeout"] = float64(m.IOShedTimeout)
	s["faster.io_shed_queue_full"] = float64(m.IOShedQueueFull)
	s["faster.io_queue_depth"] = float64(m.IOQueueDepth)
	s["faster.io_inflight"] = float64(m.IOInflight)
	s.AddHistogram("faster.io_queue_wait", m.IOQueueWait)
	s.AddHistogram("faster.io_service", m.IOService)

	s["memory.log_frames_bytes"] = float64(m.Memory.LogFrames)
	s["memory.read_cache_bytes"] = float64(m.Memory.ReadCache)
	s["memory.index_bytes"] = float64(m.Memory.Index)
	s["memory.fold_peak_bytes"] = float64(m.Memory.FoldPeak)
	s["memory.arena_live_bytes"] = float64(m.Memory.ArenaLive)
	s["memory.arena_peak_bytes"] = float64(m.Memory.ArenaPeak)
	s["memory.arena_advised_bytes"] = float64(m.Memory.ArenaAdvised)
	s["memory.arena_huge_bytes"] = float64(m.Memory.ArenaHuge)
	s["memory.go_heap_bytes"] = float64(m.Memory.GoHeap)

	s["hlog.tail_address"] = float64(m.Log.TailAddress)
	s["hlog.head_address"] = float64(m.Log.HeadAddress)
	s["hlog.read_only_address"] = float64(m.Log.ReadOnlyAddress)
	s["hlog.safe_read_only_address"] = float64(m.Log.SafeReadOnlyAddress)
	s["hlog.begin_address"] = float64(m.Log.BeginAddress)
	s["hlog.flushed_until"] = float64(m.Log.FlushedUntil)
	s["hlog.mutable_bytes"] = float64(m.Log.MutableBytes)
	s["hlog.fuzzy_bytes"] = float64(m.Log.FuzzyBytes)
	s["hlog.read_only_bytes"] = float64(m.Log.ReadOnlyBytes)
	s["hlog.stable_bytes"] = float64(m.Log.StableBytes)
	s["hlog.flushes_issued"] = float64(m.Log.FlushesIssued)
	s["hlog.flush_retries"] = float64(m.Log.FlushRetries)
	s["hlog.flush_failures"] = float64(m.Log.FlushFailures)
	if m.Log.Poisoned {
		s["hlog.poisoned"] = 1
	} else {
		s["hlog.poisoned"] = 0
	}
	s["hlog.retry_timers"] = float64(m.Log.RetryTimers)
	s["hlog.flushed_bytes"] = float64(m.Log.FlushedBytes)
	s["hlog.evicted_pages"] = float64(m.Log.EvictedPages)
	s["hlog.ro_shifts"] = float64(m.Log.ROShifts)
	s["hlog.head_shifts"] = float64(m.Log.HeadShifts)
	s["hlog.begin_shifts"] = float64(m.Log.BeginShifts)
	s["hlog.truncations"] = float64(m.Log.Truncations)
	s["hlog.truncated_bytes"] = float64(m.Log.TruncatedBytes)
	s["hlog.truncated_until"] = float64(m.Log.TruncatedUntil)
	s.AddHistogram("hlog.flush_latency", m.Log.FlushLatency)
	s.AddHistogram("hlog.frame_wait", m.Log.FrameWait)
	s.AddHistogram("hlog.tail_contention", m.Log.TailContention)
	s.AddHistogram("hlog.flush_wait", m.Log.FlushWait)

	s["index.buckets"] = float64(m.Index.Buckets)
	s["index.entries"] = float64(m.Index.Entries)
	s["index.overflow_buckets"] = float64(m.Index.OverflowBuckets)
	s["index.max_chain"] = float64(m.Index.MaxChain)
	s["index.tentative_conflicts"] = float64(m.Index.TentativeConflicts)
	s["index.insert_retries"] = float64(m.Index.InsertRetries)
	s["index.resizes"] = float64(m.Index.Resizes)
	if m.Index.ResizeActive {
		s["index.resize_active"] = 1
	} else {
		s["index.resize_active"] = 0
	}
	s["index.resize_chunks_done"] = float64(m.Index.ResizeChunksDone)
	s["index.resize_chunks_total"] = float64(m.Index.ResizeChunksTotal)
	for i, c := range m.Index.ChainLengths {
		name := fmt.Sprintf("index.chain_len_%d", i+1)
		if i == len(m.Index.ChainLengths)-1 {
			name = fmt.Sprintf("index.chain_len_%d_plus", i+1)
		}
		s[name] = float64(c)
	}

	s["epoch.current"] = float64(m.Epoch.CurrentEpoch)
	s["epoch.safe"] = float64(m.Epoch.SafeEpoch)
	s["epoch.drain_list_depth"] = float64(m.Epoch.DrainListDepth)
	s["epoch.registered"] = float64(m.Epoch.Registered)
	s["epoch.bumps"] = float64(m.Epoch.Bumps)
	s["epoch.actions_run"] = float64(m.Epoch.ActionsRun)
	s.AddHistogram("epoch.bump_to_safe", m.Epoch.BumpToSafe)

	if m.DeviceKnown {
		s["device.reads"] = float64(m.Device.Reads)
		s["device.writes"] = float64(m.Device.Writes)
		s["device.bytes_read"] = float64(m.Device.BytesRead)
		s["device.bytes_written"] = float64(m.Device.BytesWritten)
		s["device.injected_read_faults"] = float64(m.Device.InjectedReadFaults)
		s["device.injected_write_faults"] = float64(m.Device.InjectedWriteFaults)
		s.AddHistogram("device.read_latency", m.Device.ReadLatency)
		s.AddHistogram("device.write_latency", m.Device.WriteLatency)
	}
	return s
}

// WriteReport renders the full metrics snapshot as sorted "name value"
// lines (the bench/CLI report format).
func (s *Store) WriteReport(w io.Writer) error {
	_, err := io.WriteString(w, s.Metrics().Series().Format())
	return err
}

// MetricsHandler returns an http.Handler that serves the flattened metric
// series as a JSON object, for wiring into any mux.
func (s *Store) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Metrics().Series())
	})
}
