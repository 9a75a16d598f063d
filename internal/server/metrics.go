package server

import (
	"repro/internal/metrics"
)

// serverMetrics instruments the front-end's robustness surface: every
// shed, eviction and drain is counted so that overload
// behaviour is observable, not anecdotal.
type serverMetrics struct {
	connsAccepted     metrics.Counter
	connsActive       metrics.Gauge
	connsRejected     metrics.Counter // shed at the connection cap
	deadlineEvictions metrics.Counter // slow clients killed by deadlines
	panics            metrics.Counter // handler panics recovered
	acceptRetries     metrics.Counter // transient accept-loop errors

	commands        metrics.Counter
	unknownCommands metrics.Counter
	overloadSheds   metrics.Counter // -OVERLOADED replies (semaphore/session)
	readonlyRejects metrics.Counter // -READONLY replies
	failedRejects   metrics.Counter // -FAILED sheds
	pendingTimeouts metrics.Counter // slots left unresolved (-TIMEOUT)

	inflightDepth metrics.Gauge   // commands executing right now
	compactRuns   metrics.Counter // COMPACT commands accepted

	ioAsync         metrics.Counter // misses re-routed through the io-worker pool
	ioShedTimeouts  metrics.Counter // -TIMEOUT deadline sheds (explicit, ladder-neutral)
	ioShedQueueFull metrics.Counter // -OVERLOADED io-queue-full sheds

	cmdLatency metrics.Histogram

	drains  metrics.Counter
	drainNs metrics.Gauge // duration of the last graceful drain
}

// Metrics is a point-in-time snapshot of the server counters.
type Metrics struct {
	ConnsAccepted     uint64
	ConnsActive       int64
	ConnsRejected     uint64
	DeadlineEvictions uint64
	Panics            uint64
	AcceptRetries     uint64

	Commands        uint64
	UnknownCommands uint64
	OverloadSheds   uint64
	ReadonlyRejects uint64
	FailedRejects   uint64
	PendingTimeouts uint64

	InflightDepth int64
	CompactRuns   uint64

	IOAsync         uint64
	IOShedTimeouts  uint64
	IOShedQueueFull uint64

	CmdLatency metrics.HistogramSnapshot

	Drains      uint64
	LastDrainNs int64
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ConnsAccepted:     s.mx.connsAccepted.Load(),
		ConnsActive:       s.mx.connsActive.Load(),
		ConnsRejected:     s.mx.connsRejected.Load(),
		DeadlineEvictions: s.mx.deadlineEvictions.Load(),
		Panics:            s.mx.panics.Load(),
		AcceptRetries:     s.mx.acceptRetries.Load(),
		Commands:          s.mx.commands.Load(),
		UnknownCommands:   s.mx.unknownCommands.Load(),
		OverloadSheds:     s.mx.overloadSheds.Load(),
		ReadonlyRejects:   s.mx.readonlyRejects.Load(),
		FailedRejects:     s.mx.failedRejects.Load(),
		PendingTimeouts:   s.mx.pendingTimeouts.Load(),
		InflightDepth:     s.mx.inflightDepth.Load(),
		CompactRuns:       s.mx.compactRuns.Load(),
		IOAsync:           s.mx.ioAsync.Load(),
		IOShedTimeouts:    s.mx.ioShedTimeouts.Load(),
		IOShedQueueFull:   s.mx.ioShedQueueFull.Load(),
		CmdLatency:        s.mx.cmdLatency.Snapshot(),
		Drains:            s.mx.drains.Load(),
		LastDrainNs:       s.mx.drainNs.Load(),
	}
}

// Series flattens the snapshot into the store-wide exchange format,
// under "server." names.
func (m Metrics) Series() metrics.Series {
	s := metrics.Series{
		"server.conns_accepted":     float64(m.ConnsAccepted),
		"server.conns_active":       float64(m.ConnsActive),
		"server.conns_rejected":     float64(m.ConnsRejected),
		"server.deadline_evictions": float64(m.DeadlineEvictions),
		"server.panics":             float64(m.Panics),
		"server.accept_retries":     float64(m.AcceptRetries),
		"server.commands":           float64(m.Commands),
		"server.unknown_commands":   float64(m.UnknownCommands),
		"server.overload_sheds":     float64(m.OverloadSheds),
		"server.readonly_rejects":   float64(m.ReadonlyRejects),
		"server.failed_rejects":     float64(m.FailedRejects),
		"server.pending_timeouts":   float64(m.PendingTimeouts),
		"server.inflight_depth":     float64(m.InflightDepth),
		"server.compact_runs":       float64(m.CompactRuns),
		"server.io_async":           float64(m.IOAsync),
		"server.io_shed_timeouts":   float64(m.IOShedTimeouts),
		"server.io_shed_queue_full": float64(m.IOShedQueueFull),
		"server.drains":             float64(m.Drains),
		"server.last_drain_ns":      float64(m.LastDrainNs),
	}
	s.AddHistogram("server.cmd_latency", m.CmdLatency)
	return s
}
