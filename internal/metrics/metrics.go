// Package metrics is the store-wide instrumentation substrate: atomic
// counters, gauges and fixed-bucket latency histograms with zero
// allocations and no locks on the hot path. Every layer of the store
// (faster, hlog, index, epoch, device) embeds these primitives and
// exposes a snapshot; faster.Store.Metrics() aggregates the snapshots
// into the named series consumed by the bench/CLI reports and the JSON
// endpoint.
//
// The package is deliberately stdlib-only and dependency-free so that
// every internal package can import it.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways (queue depths,
// region sizes).
type Gauge struct{ v atomic.Int64 }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistogramBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations in [2^i, 2^(i+1)) ns (bucket 0 holds zero- and
// one-nanosecond observations; the last bucket is a catch-all), covering
// sub-microsecond spins up to multi-second stalls.
const HistogramBuckets = 40

// Histogram is a fixed-bucket latency histogram. Observations are
// single atomic increments; the value arrays are embedded, so a
// Histogram never allocates.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // total nanoseconds
	max     atomic.Uint64 // high-water mark, nanoseconds
}

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	if b > 0 {
		b--
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveNs(uint64(d))
}

// ObserveNs records one duration given in nanoseconds.
func (h *Histogram) ObserveNs(ns uint64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a consistent-enough copy for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [HistogramBuckets]uint64
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.Count)
}

// Max returns the largest observed duration.
func (s HistogramSnapshot) Max() time.Duration { return time.Duration(s.MaxNs) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// top edge of the bucket containing it. Resolution is a factor of two,
// which is plenty for spotting latency regressions.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			// Bucket i covers [2^i, 2^(i+1)); report its top edge, capped
			// at the true maximum for the catch-all bucket.
			edge := uint64(1) << uint(i+1)
			if i == HistogramBuckets-1 || edge > s.MaxNs && s.MaxNs >= uint64(1)<<uint(i) {
				return time.Duration(s.MaxNs)
			}
			return time.Duration(edge)
		}
	}
	return time.Duration(s.MaxNs)
}

func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("count=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Max())
}

// Series is a flat name -> value view of a metrics snapshot, the exchange
// format between layer snapshots and the JSON endpoint and text
// reports. Latencies appear in nanoseconds.
type Series map[string]float64

// Merge copies every entry of other, prefixing names with prefix+".".
func (s Series) Merge(prefix string, other Series) {
	for k, v := range other {
		s[prefix+"."+k] = v
	}
}

// AddHistogram flattens h into count/mean/p50/p99/max sub-series of name.
func (s Series) AddHistogram(name string, h HistogramSnapshot) {
	s[name+".count"] = float64(h.Count)
	s[name+".mean_ns"] = float64(h.Mean())
	s[name+".p50_ns"] = float64(h.Quantile(0.50))
	s[name+".p99_ns"] = float64(h.Quantile(0.99))
	s[name+".max_ns"] = float64(h.MaxNs)
}

// Format renders the series as sorted "name value" lines.
func (s Series) Format() string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		v := s[k]
		if v == float64(uint64(v)) {
			fmt.Fprintf(&b, "%-44s %d\n", k, uint64(v))
		} else {
			fmt.Fprintf(&b, "%-44s %g\n", k, v)
		}
	}
	return b.String()
}
