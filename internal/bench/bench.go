// Package bench is the benchmark harness behind cmd/faster-bench: it
// drives YCSB workloads (§7.1) against FASTER and the baseline systems
// with a uniform adapter interface, measuring throughput the way the
// paper does — N workers issuing operations for a fixed duration,
// counting completions.
package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ycsb"
)

// Worker is one benchmark thread's handle onto a system under test.
type Worker interface {
	// Read looks up key into out (len = value size), reporting presence.
	Read(key uint64, out []byte) bool
	// Upsert blindly sets key = value.
	Upsert(key uint64, value []byte)
	// RMW adds delta to the 8-byte counter at key.
	RMW(key uint64, delta uint64)
	// Finish drains any outstanding asynchronous work.
	Finish()
	// Close releases the worker.
	Close()
}

// System is a key-value system under test.
type System interface {
	Name() string
	NewWorker(id int) Worker
	Close() error
}

// RunConfig parameterises one measurement.
type RunConfig struct {
	// Threads is the worker count.
	Threads int
	// Duration is the measurement window.
	Duration time.Duration
	// Workload supplies keys and op kinds; cloned per worker.
	Workload *ycsb.Workload
	// ValueSize is the payload size (8 or 100 in the paper).
	ValueSize int
	// Preload inserts every key before measuring (the paper preloads
	// the dataset).
	Preload bool
	// RMWInputs is the paper's 8-entry increment array.
	RMWInputs [8]uint64
	// Seed bases per-worker seeds.
	Seed int64
}

// Result is one measurement.
type Result struct {
	System   string
	Threads  int
	Ops      uint64
	Elapsed  time.Duration
	ValueSz  int
	Workload string
}

// Mops returns throughput in million operations per second.
func (r Result) Mops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s threads=%-3d %-10s %3dB  %8.3f Mops/s",
		r.System, r.Threads, r.Workload, r.ValueSz, r.Mops())
}

// preload inserts every key in the workload's key space with a zero
// value of the configured size.
func preload(sys System, keys uint64, valueSize int, threads int) {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	per := keys / uint64(threads)
	for t := 0; t < threads; t++ {
		lo := uint64(t) * per
		hi := lo + per
		if t == threads-1 {
			hi = keys
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			w := sys.NewWorker(1000 + int(lo))
			defer w.Close()
			val := make([]byte, valueSize)
			for k := lo; k < hi; k++ {
				binary.LittleEndian.PutUint64(val, k)
				w.Upsert(k, val)
			}
			w.Finish()
		}(lo, hi)
	}
	wg.Wait()
}

// drawRing draws a worker's operations from wl as key<<2 | kind, before
// any clock starts, so the timed loop does not pay for the key generator.
// The ring is a power of two long, so the loop indexes it with a mask,
// and covers the key space: one lap is at least as many operations as
// there are keys (2^16 to 2^20 of them, 512 KiB to 8 MiB). A run longer
// than the ring replays it.
func drawRing(wl *ycsb.Workload) []uint64 {
	n := 1 << 16
	for n < 1<<20 && uint64(n) < wl.KeySpace() {
		n <<= 1
	}
	ring := make([]uint64, n)
	for i := range ring {
		op := wl.Next()
		ring[i] = op.Key<<2 | uint64(op.Kind)
	}
	return ring
}

// Run measures sys under cfg.
func Run(sys System, cfg RunConfig, label string) Result {
	if cfg.Preload {
		preload(sys, cfg.Workload.KeySpace(), cfg.ValueSize, cfg.Threads)
	}
	var (
		stop    atomic.Bool
		totalOp atomic.Uint64
		wg      sync.WaitGroup
	)
	rings := make([][]uint64, cfg.Threads)
	for t := range rings {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rings[t] = drawRing(cfg.Workload.Clone(cfg.Seed + int64(t)*7919))
		}(t)
	}
	wg.Wait()
	start := time.Now()
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := sys.NewWorker(id)
			defer w.Close()
			ring, mask := rings[id], uint64(len(rings[id])-1)
			out := make([]byte, cfg.ValueSize)
			val := make([]byte, cfg.ValueSize)
			for i := range val {
				val[i] = byte(id)
			}
			var done uint64
			// The stop flag is read once every 256 operations.
			for done&255 != 0 || !stop.Load() {
				op := ring[done&mask]
				switch key := op >> 2; ycsb.OpKind(op & 3) {
				case ycsb.OpRead:
					w.Read(key, out)
				case ycsb.OpUpsert:
					w.Upsert(key, val)
				case ycsb.OpRMW:
					w.RMW(key, cfg.RMWInputs[done&7])
				}
				done++
			}
			w.Finish()
			totalOp.Add(done)
		}(t)
	}
	time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	wg.Wait()
	elapsed := time.Since(start)
	return Result{
		System:   sys.Name(),
		Threads:  cfg.Threads,
		Ops:      totalOp.Load(),
		Elapsed:  elapsed,
		ValueSz:  cfg.ValueSize,
		Workload: label,
	}
}
