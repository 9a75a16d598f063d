package main

import (
	"runtime"
	"runtime/metrics"

	"repro/internal/faster"
)

// metric is one reported number. n is the number of samples (or events)
// behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     uint64
}

// snapshot is every counter the layers already export, plus the
// benchmark's own device counters and the process's scheduler and
// collector figures, read at one instant outside the timed phases. Layer
// metrics are differences of two snapshots.
type snapshot struct {
	reads, upserts, rmws, inPlace, rcuCopies, failedCAS uint64
	ioSubmitted, ioCoalesced                            uint64
	ioWaitCount, ioWaitNs, ioServiceCount, ioServiceNs  uint64
	rcHits, rcMisses, rcFills, rcInvalidations          uint64
	compactions, compactedBytes, reclaimedBytes         uint64
	insertRetries, tentativeConflicts, epochBumps       uint64

	devReads, devReadBytes, devReadBusyNs uint64
	devWrites, devWriteBytes, devSyncs    uint64

	sheds uint64 // server: -OVERLOADED and -TIMEOUT replies of every kind

	gcPauseNs  uint64
	mallocs    uint64
	schedLat   *metrics.Float64Histogram
	goroutines int
}

func (r *rig) snapshot() snapshot {
	var s snapshot
	for _, m := range r.store.Metrics().Shards {
		s.addStore(m)
	}
	for _, d := range r.devs {
		s.devReads += d.reads.Load()
		s.devReadBytes += d.readBytes.Load()
		s.devReadBusyNs += d.readBusyNs.Load()
		s.devWrites += d.writes.Load()
		s.devWriteBytes += d.writeBytes.Load()
		s.devSyncs += d.syncs.Load()
	}
	if r.srv != nil {
		m := r.srv.Metrics()
		s.sheds = m.OverloadSheds + m.PendingTimeouts + m.IOShedTimeouts + m.IOShedQueueFull
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPauseNs, s.mallocs = ms.PauseTotalNs, ms.Mallocs
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = sample[0].Value.Float64Histogram()
	}
	s.goroutines = runtime.NumGoroutine()
	return s
}

func (s *snapshot) addStore(m faster.StoreMetrics) {
	s.reads += m.Reads
	s.upserts += m.Upserts
	s.rmws += m.RMWs
	s.inPlace += m.InPlace
	s.rcuCopies += m.RCUCopies
	s.failedCAS += m.FailedCAS
	s.ioSubmitted += m.IOSubmitted
	s.ioCoalesced += m.IOCoalescedReads
	s.ioWaitCount += m.IOQueueWait.Count
	s.ioWaitNs += m.IOQueueWait.SumNs
	s.ioServiceCount += m.IOService.Count
	s.ioServiceNs += m.IOService.SumNs
	s.rcHits += m.ReadCache.Hits
	s.rcMisses += m.ReadCache.Misses
	s.rcFills += m.ReadCache.Fills
	s.rcInvalidations += m.ReadCache.Invalidations
	s.compactions += m.Compactions
	s.compactedBytes += m.CompactedBytes
	s.reclaimedBytes += m.ReclaimedBytes
	s.insertRetries += m.Index.InsertRetries
	s.tentativeConflicts += m.Index.TentativeConflicts
	s.epochBumps += m.Epoch.Bumps
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// schedP99us is the 99th percentile of the time goroutines spent runnable
// before running, between two snapshots (bucket upper edge).
func schedP99us(a, b *metrics.Float64Histogram) (float64, uint64) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := total - total/100
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			return b.Buckets[i+1] * 1e6, total
		}
	}
	return 0, total
}

// counterRows turns the difference of two snapshots into the per-layer
// metrics that are counts and ratios. gets and ops are the requests the
// benchmark issued between the snapshots; userWriteBytes the key and
// value bytes of the writes that were acknowledged.
func counterRows(a, b snapshot, gets, ops, userWriteBytes uint64) []metric {
	d := func(x, y uint64) uint64 { return y - x }
	updates := d(a.upserts, b.upserts) + d(a.rmws, b.rmws)
	lookups := d(a.rcHits, b.rcHits) + d(a.rcMisses, b.rcMisses)
	sched, schedN := schedP99us(a.schedLat, b.schedLat)
	return []metric{
		{"server.sheds", float64(d(a.sheds, b.sheds)), "count", ops},
		{"index.insert_retries", float64(d(a.insertRetries, b.insertRetries) + d(a.tentativeConflicts, b.tentativeConflicts)), "count", ops},
		{"epoch.bumps", float64(d(a.epochBumps, b.epochBumps)), "count", ops},
		{"faster.in_place_ratio", ratio(d(a.inPlace, b.inPlace), updates), "ratio", updates},
		{"faster.failed_cas", float64(d(a.failedCAS, b.failedCAS)), "count", ops},
		{"faster.rc_hit_ratio", ratio(d(a.rcHits, b.rcHits), lookups), "ratio", lookups},
		{"faster.rc_fills", float64(d(a.rcFills, b.rcFills)), "count", lookups},
		{"faster.io_submitted", float64(d(a.ioSubmitted, b.ioSubmitted)), "count", ops},
		{"faster.io_coalesced_ratio", ratio(d(a.ioCoalesced, b.ioCoalesced), d(a.ioSubmitted, b.ioSubmitted)), "ratio", d(a.ioSubmitted, b.ioSubmitted)},
		{"faster.io_queue_wait_us", ratio(d(a.ioWaitNs, b.ioWaitNs), d(a.ioWaitCount, b.ioWaitCount)) / 1e3, "us", d(a.ioWaitCount, b.ioWaitCount)},
		{"faster.io_service_us", ratio(d(a.ioServiceNs, b.ioServiceNs), d(a.ioServiceCount, b.ioServiceCount)) / 1e3, "us", d(a.ioServiceCount, b.ioServiceCount)},
		{"device.reads_per_get", ratio(d(a.devReads, b.devReads), gets), "count", gets},
		{"device.read_bytes_per_get", ratio(d(a.devReadBytes, b.devReadBytes), gets), "B", gets},
		{"device.read_busy_ns", ratio(d(a.devReadBusyNs, b.devReadBusyNs), gets), "ns/get", gets},
		{"hlog.write_amp", ratio(d(a.devWriteBytes, b.devWriteBytes), userWriteBytes), "ratio", userWriteBytes},
		{"device.writes", float64(d(a.devWrites, b.devWrites)), "count", ops},
		{"device.write_bytes", float64(d(a.devWriteBytes, b.devWriteBytes)), "B", ops},
		{"device.syncs", float64(d(a.devSyncs, b.devSyncs)), "count", ops},
		{"faster.rcu_copies", float64(d(a.rcuCopies, b.rcuCopies)), "count", updates},
		{"faster.compactions", float64(d(a.compactions, b.compactions)), "count", ops},
		{"faster.compact_write_amp", ratio(d(a.compactedBytes, b.compactedBytes), d(a.reclaimedBytes, b.reclaimedBytes)), "ratio", d(a.compactions, b.compactions)},
		{"faster.rc_invalidations", float64(d(a.rcInvalidations, b.rcInvalidations)), "count", updates},
		{"sched.latency_p99_us", sched, "us", schedN},
		{"gc.pause_total_ms", float64(d(a.gcPauseNs, b.gcPauseNs)) / 1e6, "ms", ops},
		{"goroutines", float64(b.goroutines), "count", 1},
	}
}
