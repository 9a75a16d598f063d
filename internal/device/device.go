// Package device abstracts the secondary-storage layer under the FASTER
// log-structured allocators (Section 5 of the paper).
//
// The HybridLog issues asynchronous, sector-aligned page flushes and
// record-granular random reads. The Device interface captures exactly that
// contract. Three implementations are provided:
//
//   - File:  a real file on disk, mirroring the paper's "file on SSD",
//     serviced by a small pool of I/O worker goroutines.
//   - Mem:   an in-memory simulated SSD with configurable read latency and
//     sequential-write bandwidth, used where the paper's FusionIO drive is
//     unavailable (see DESIGN.md substitutions). It delivers each request
//     at its due time from one timer-driven goroutine.
//   - Null:  discards writes and fails reads; backs the pure in-memory
//     allocator mode, which never touches storage.
package device

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrClosed is returned by operations on a closed device.
var ErrClosed = errors.New("device: closed")

// ErrOutOfRange is returned when a read addresses bytes never written.
var ErrOutOfRange = errors.New("device: read beyond written extent")

// Callback receives the result of an asynchronous I/O operation.
type Callback func(err error)

// Device is an asynchronous block store addressed by byte offset. Offsets
// correspond one-to-one with HybridLog logical addresses, so a record at
// logical address L lives at device offset L once its page is flushed.
//
// Implementations must allow concurrent calls. Callbacks may run on
// arbitrary goroutines and must not block for long.
type Device interface {
	// WriteAsync writes buf at the given offset and invokes cb when the
	// write has completed (or has failed): reads see it from then on, but
	// it is durable only after a later Sync. The caller must not modify
	// buf until cb runs.
	WriteAsync(buf []byte, offset uint64, cb Callback)

	// ReadAsync fills buf from the given offset and invokes cb. Reads of
	// regions never written fail with ErrOutOfRange (File devices may
	// instead return io.EOF-derived errors).
	ReadAsync(buf []byte, offset uint64, cb Callback)

	// Sync blocks until all writes issued before the call have completed
	// and are durable: they survive a power cut.
	Sync() error

	// Truncate discards all data below the given offset (log GC,
	// Appendix C). Reads below it subsequently fail.
	Truncate(until uint64) error

	// Close releases resources. Outstanding I/O completes first.
	Close() error
}

// Stats aggregates device-level counters exposed by the built-in devices.
type Stats struct {
	Writes       uint64 // number of WriteAsync calls completed
	Reads        uint64 // number of ReadAsync calls completed
	BytesWritten uint64
	BytesRead    uint64
}

// Metrics extends Stats with per-operation latency histograms (measured
// from submission to completion callback, so queueing behind a busy
// worker pool shows up) and the injected-fault counters of Faulty.
type Metrics struct {
	Stats
	ReadLatency         metrics.HistogramSnapshot
	WriteLatency        metrics.HistogramSnapshot
	InjectedReadFaults  uint64
	InjectedWriteFaults uint64
}

// MetricsSource is implemented by devices that expose instrumentation;
// all built-in devices do.
type MetricsSource interface {
	Metrics() Metrics
}

// statCounters is embedded by implementations to share counter plumbing.
type statCounters struct {
	writes       atomic.Uint64
	reads        atomic.Uint64
	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64
	readLatency  metrics.Histogram
	writeLatency metrics.Histogram
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		Writes:       s.writes.Load(),
		Reads:        s.reads.Load(),
		BytesWritten: s.bytesWritten.Load(),
		BytesRead:    s.bytesRead.Load(),
	}
}

func (s *statCounters) metricsSnapshot() Metrics {
	return Metrics{
		Stats:        s.snapshot(),
		ReadLatency:  s.readLatency.Snapshot(),
		WriteLatency: s.writeLatency.Snapshot(),
	}
}

// observe records an operation's submit-to-completion latency.
func (s *statCounters) observe(write bool, submitNs int64) {
	d := time.Now().UnixNano() - submitNs
	if d < 0 {
		d = 0
	}
	if write {
		s.writeLatency.ObserveNs(uint64(d))
	} else {
		s.readLatency.ObserveNs(uint64(d))
	}
}

// ---------------------------------------------------------------------------
// ioPool: a fixed pool of worker goroutines servicing async requests.
// ---------------------------------------------------------------------------

type ioRequest struct {
	write    bool
	buf      []byte
	offset   uint64
	cb       Callback
	submitNs int64  // set by submit; feeds the latency histograms
	gen      uint64 // a write's Sync generation (writeGens.issue)
}

// writeGens lets Sync wait for exactly the writes issued before it. Reads,
// and writes issued after the call, do not hold it up: on a busy device
// they may never drain. Each write is counted in the current generation;
// wait opens a new one and blocks until every earlier one has drained.
// The owner's lock guards it and is drained's Locker.
type writeGens struct {
	cur     uint64
	count   map[uint64]int // writes in flight per generation; no zero entries
	drained sync.Cond
}

func (w *writeGens) init(l sync.Locker) {
	w.count = make(map[uint64]int)
	w.drained.L = l
}

// issue counts a new write and returns its generation.
func (w *writeGens) issue() uint64 {
	w.count[w.cur]++
	return w.cur
}

// done retires a write issued in generation g.
func (w *writeGens) done(g uint64) {
	if w.count[g]--; w.count[g] == 0 {
		delete(w.count, g)
		w.drained.Broadcast()
	}
}

// wait blocks until every write issued before the call is done.
func (w *writeGens) wait() {
	g := w.cur
	w.cur++
	for w.inFlightThrough(g) {
		w.drained.Wait()
	}
}

// inFlightThrough reports whether a write of generation g or earlier is
// still in flight. The map holds one entry per generation with writes in
// flight: the current one plus one per waiting Sync.
func (w *writeGens) inFlightThrough(g uint64) bool {
	for k := range w.count {
		if k <= g {
			return true
		}
	}
	return false
}

// ioPool services asynchronous requests with a fixed set of worker
// goroutines over an unbounded queue. The queue must be unbounded:
// completion callbacks may submit follow-up I/O (two-phase record reads),
// so a bounded queue could deadlock with every worker blocked inside a
// callback that is trying to enqueue.
type ioPool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []ioRequest
	inflight writeGens // under mu; what syncWait waits for
	wg       sync.WaitGroup
	closed   atomic.Bool
}

func newIOPool(workers int, serve func(ioRequest)) *ioPool {
	if workers < 1 {
		workers = 1
	}
	p := &ioPool{}
	p.cond = sync.NewCond(&p.mu)
	p.inflight.init(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				p.mu.Lock()
				for len(p.queue) == 0 && !p.closed.Load() {
					p.cond.Wait()
				}
				if len(p.queue) == 0 {
					p.mu.Unlock()
					return
				}
				r := p.queue[0]
				p.queue = p.queue[1:]
				p.mu.Unlock()
				serve(r)
				if r.write {
					p.mu.Lock()
					p.inflight.done(r.gen)
					p.mu.Unlock()
				}
			}
		}()
	}
	return p
}

func (p *ioPool) submit(r ioRequest) bool {
	if p.closed.Load() {
		return false
	}
	r.submitNs = time.Now().UnixNano()
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return false
	}
	if r.write {
		r.gen = p.inflight.issue()
	}
	p.queue = append(p.queue, r)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// syncWait blocks until every write submitted before the call has been
// served.
func (p *ioPool) syncWait() {
	p.mu.Lock()
	p.inflight.wait()
	p.mu.Unlock()
}

func (p *ioPool) close() {
	p.mu.Lock()
	already := p.closed.Swap(true)
	p.mu.Unlock()
	if already {
		return
	}
	p.cond.Broadcast()
	p.wg.Wait()
	// Fail any requests that were queued but never served.
	for _, r := range p.queue {
		r.cb(ErrClosed)
		if r.write {
			p.mu.Lock()
			p.inflight.done(r.gen)
			p.mu.Unlock()
		}
	}
	p.queue = nil
}

// ---------------------------------------------------------------------------
// File device
// ---------------------------------------------------------------------------

// File is a Device backed by a file, the direct analogue of the paper's
// "file on SSD". I/O is serviced by a pool of goroutines using positional
// reads and writes, so requests proceed concurrently.
type File struct {
	statCounters
	f         *os.File
	pool      *ioPool
	truncated atomic.Uint64 // offsets below this are invalid
	maxExtent atomic.Uint64 // high-water mark of written bytes
}

// OpenFile creates or opens path as a device. workers sets the I/O pool
// size; 4 is a reasonable default for an SSD.
func OpenFile(path string, workers int) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	d := &File{f: f}
	d.pool = newIOPool(workers, d.serve)
	return d, nil
}

func (d *File) serve(r ioRequest) {
	var err error
	defer func() { d.observe(r.write, r.submitNs) }()
	if r.write {
		_, err = d.f.WriteAt(r.buf, int64(r.offset))
		if err == nil {
			d.writes.Add(1)
			d.bytesWritten.Add(uint64(len(r.buf)))
			for {
				hi := d.maxExtent.Load()
				end := r.offset + uint64(len(r.buf))
				if end <= hi || d.maxExtent.CompareAndSwap(hi, end) {
					break
				}
			}
		}
	} else {
		switch {
		case r.offset < d.truncated.Load():
			err = ErrOutOfRange
		default:
			var n int
			n, err = d.f.ReadAt(r.buf, int64(r.offset))
			if err == io.EOF && n == len(r.buf) {
				err = nil
			}
			if err == nil {
				d.reads.Add(1)
				d.bytesRead.Add(uint64(len(r.buf)))
			}
		}
	}
	r.cb(err)
}

// WriteAsync implements Device.
func (d *File) WriteAsync(buf []byte, offset uint64, cb Callback) {
	if !d.pool.submit(ioRequest{write: true, buf: buf, offset: offset, cb: cb}) {
		cb(ErrClosed)
	}
}

// ReadAsync implements Device.
func (d *File) ReadAsync(buf []byte, offset uint64, cb Callback) {
	if !d.pool.submit(ioRequest{buf: buf, offset: offset, cb: cb}) {
		cb(ErrClosed)
	}
}

// Sync implements Device.
func (d *File) Sync() error {
	d.pool.syncWait()
	return d.f.Sync()
}

// Truncate implements Device. Data below until becomes unreadable; the
// underlying file is hole-punched only logically (offsets are preserved).
func (d *File) Truncate(until uint64) error {
	for {
		old := d.truncated.Load()
		if until <= old || d.truncated.CompareAndSwap(old, until) {
			return nil
		}
	}
}

// Stats returns I/O counters.
func (d *File) Stats() Stats { return d.snapshot() }

// Metrics implements MetricsSource.
func (d *File) Metrics() Metrics { return d.metricsSnapshot() }

// Close implements Device.
func (d *File) Close() error {
	d.pool.close()
	return d.f.Close()
}

// ---------------------------------------------------------------------------
// Null device
// ---------------------------------------------------------------------------

// Null discards all writes and fails all reads. It backs the in-memory
// store of Section 4, a log whose ring holds all its data and so never
// reads from storage, and the read cache's log. A store over it cannot
// checkpoint.
type Null struct{ statCounters }

// NewNull returns a Null device.
func NewNull() *Null { return &Null{} }

// WriteAsync implements Device; the write is acknowledged immediately.
func (d *Null) WriteAsync(buf []byte, offset uint64, cb Callback) {
	d.writes.Add(1)
	d.bytesWritten.Add(uint64(len(buf)))
	cb(nil)
}

// ReadAsync implements Device; reads always fail.
func (d *Null) ReadAsync(buf []byte, offset uint64, cb Callback) {
	cb(ErrOutOfRange)
}

// Sync implements Device.
func (d *Null) Sync() error { return nil }

// Truncate implements Device.
func (d *Null) Truncate(uint64) error { return nil }

// Stats returns I/O counters.
func (d *Null) Stats() Stats { return d.snapshot() }

// Metrics implements MetricsSource.
func (d *Null) Metrics() Metrics { return d.metricsSnapshot() }

// Close implements Device.
func (d *Null) Close() error { return nil }
