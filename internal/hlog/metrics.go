package hlog

import "repro/internal/metrics"

// Metrics is a point-in-time snapshot of the log's counters, marker
// addresses, and derived region sizes. Region sizes follow the partition
// begin ≤ head ≤ safeReadOnly ≤ readOnly ≤ tail (Fig 7 of the paper);
// because the markers are sampled independently a transient inversion is
// possible, so the subtractions saturate at zero.
type Metrics struct {
	// Marker addresses.
	BeginAddress        uint64
	HeadAddress         uint64
	SafeReadOnlyAddress uint64
	ReadOnlyAddress     uint64
	TailAddress         uint64
	FlushedUntil        uint64

	// Per-region byte sizes.
	MutableBytes  uint64 // [readOnly, tail): updated in place
	FuzzyBytes    uint64 // [safeReadOnly, readOnly): §6.2-6.3
	ReadOnlyBytes uint64 // [head, safeReadOnly): in memory, immutable
	StableBytes   uint64 // [begin, head): on the device only

	// Flush and eviction activity.
	FlushesIssued uint64
	FlushRetries  uint64
	FlushFailures uint64 // flush spans abandoned after the retry budget
	ReadRetries   uint64 // failed device reads re-issued
	FlushedBytes  uint64
	FlushLatency  metrics.HistogramSnapshot
	EvictedPages  uint64
	ROShifts      uint64
	HeadShifts    uint64

	// Truncation activity (GC / compaction).
	BeginShifts    uint64 // begin address advances
	Truncations    uint64 // device truncates applied
	TruncatedBytes uint64 // bytes freed on the device
	TruncatedUntil uint64 // device truncation watermark

	// Poisoned reports an unwritable log tail (see ErrPoisoned); Retry
	// timers still pending are counted in RetryTimers.
	Poisoned    bool
	RetryTimers int

	// Stall time distributions.
	FrameWait      metrics.HistogramSnapshot // openPage blocked on eviction
	TailContention metrics.HistogramSnapshot // Allocate spun behind a page-opener
	FlushWait      metrics.HistogramSnapshot // WaitUntilFlushed stalls
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Metrics returns a snapshot of the log's instrumentation.
func (l *Log) Metrics() Metrics {
	begin := l.BeginAddress()
	head := l.HeadAddress()
	safeRO := l.SafeReadOnlyAddress()
	ro := l.ReadOnlyAddress()
	tail := l.TailAddress()
	return Metrics{
		BeginAddress:        begin,
		HeadAddress:         head,
		SafeReadOnlyAddress: safeRO,
		ReadOnlyAddress:     ro,
		TailAddress:         tail,
		FlushedUntil:        l.FlushedUntilAddress(),

		MutableBytes:  satSub(tail, ro),
		FuzzyBytes:    satSub(ro, safeRO),
		ReadOnlyBytes: satSub(safeRO, head),
		StableBytes:   satSub(head, begin),

		FlushesIssued: l.mx.flushesIssued.Load(),
		FlushRetries:  l.mx.flushRetries.Load(),
		FlushFailures: l.mx.flushFailures.Load(),
		ReadRetries:   l.mx.readRetries.Load(),
		FlushedBytes:  l.mx.flushedBytes.Load(),
		FlushLatency:  l.mx.flushLatency.Snapshot(),
		EvictedPages:  l.mx.evictedPages.Load(),
		ROShifts:      l.mx.roShifts.Load(),
		HeadShifts:    l.mx.headShifts.Load(),

		BeginShifts:    l.mx.beginShifts.Load(),
		Truncations:    l.mx.truncations.Load(),
		TruncatedBytes: l.mx.truncatedBytes.Load(),
		TruncatedUntil: l.TruncatedUntil(),

		Poisoned:    l.Poisoned(),
		RetryTimers: l.retryTimerCount(),

		FrameWait:      l.mx.frameWait.Snapshot(),
		TailContention: l.mx.tailContention.Snapshot(),
		FlushWait:      l.mx.flushWait.Snapshot(),
	}
}
