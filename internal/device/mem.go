package device

import (
	"math"
	"sync"
	"time"

	"repro/internal/arena"
)

// MemConfig tunes the simulated SSD.
type MemConfig struct {
	// ReadLatency is added to every read, modelling flash random-read
	// latency. Zero disables the delay.
	ReadLatency time.Duration
	// WriteBandwidth caps sequential write throughput in bytes/sec,
	// modelling the drive's 2 GB/s ceiling from §7.3. Zero = unlimited.
	WriteBandwidth uint64
	// Workers sets how many reads are in service at once (default 4); a
	// read that finds every slot busy queues for the earliest free one.
	Workers int
}

// Mem is an in-memory Device that simulates an SSD: it stores flushed pages
// in a sparse map of extents and can impose read latency and a write
// bandwidth cap. It substitutes for the paper's FusionIO drive in
// larger-than-memory experiments (DESIGN.md §1). Extents live outside the
// Go heap (internal/arena), so the collector's heap goal does not grow
// with the drive's contents.
//
// Nothing in it sleeps. Submission stamps each request with the time it
// is due: a read when the earliest free of Workers service slots has
// served it for ReadLatency, a write when a byte clock running at
// WriteBandwidth has passed its bytes. Requests wait in a min-heap on
// (due, submission order), and one delivery goroutine per device sleeps
// on an alarm set for the head's due time. On waking it copies the data
// of every due request — so a truncate or an overwrite between
// submission and due time behaves as on a drive that serves the request
// then — and runs the callbacks. An idle device has no alarm set.
type Mem struct {
	statCounters
	cfg   MemConfig
	start time.Time // the zero of the due-time clock

	qmu         sync.Mutex
	queue       []memRequest // min-heap on (due, seq)
	seq         uint64
	slots       []int64 // when each read service slot is next free
	writeFree   int64   // when the write byte clock is next free
	wakeAt      int64   // the alarm's setting, or wakeNever / wakeRunning
	outstanding int     // submitted, callback not yet returned
	drained     sync.Cond
	closed      bool
	alarm       alarm
	stopped     chan struct{} // closed when the delivery goroutine exits

	mu         sync.RWMutex
	extents    map[uint64][]byte // offset -> copy of written buffer
	truncated  uint64
	maxExtent  uint64
	extentSize uint64 // size of first extent; fast path for aligned lookups
}

// memRequest is a request waiting in Mem's heap. Times are nanoseconds
// since Mem.start.
type memRequest struct {
	ioRequest
	due int64
	seq uint64
}

func (a *memRequest) before(b *memRequest) bool {
	return a.due < b.due || a.due == b.due && a.seq < b.seq
}

// Mem.wakeAt sentinels: nothing is queued and the alarm is unset, or the
// delivery goroutine is awake and will look at the queue before it
// sleeps again (so a submit need not set the alarm).
const (
	wakeNever   = math.MaxInt64
	wakeRunning = math.MinInt64
)

// NewMem creates a simulated SSD.
func NewMem(cfg MemConfig) *Mem {
	workers := cfg.Workers
	if workers == 0 {
		workers = 4
	}
	d := &Mem{
		cfg:     cfg,
		start:   time.Now(),
		slots:   make([]int64, max(workers, 1)),
		wakeAt:  wakeNever,
		alarm:   newAlarm(),
		stopped: make(chan struct{}),
		extents: make(map[uint64][]byte),
	}
	d.drained.L = &d.qmu
	go d.deliver()
	return d
}

func (d *Mem) now() int64 { return int64(time.Since(d.start)) }

// submit stamps r with its due time and queues it, setting the alarm if r
// is now the first request due.
func (d *Mem) submit(r ioRequest) {
	now := time.Now()
	r.submitNs = now.UnixNano()
	t := int64(now.Sub(d.start))
	d.qmu.Lock()
	if d.closed {
		d.qmu.Unlock()
		r.cb(ErrClosed)
		return
	}
	due := d.dueTime(r, t)
	d.seq++
	d.push(memRequest{ioRequest: r, due: due, seq: d.seq})
	d.outstanding++
	if due < d.wakeAt {
		d.wakeAt = due
		d.alarm.set(time.Duration(due - t))
	}
	d.qmu.Unlock()
}

// dueTime books r on the device at time now: a read takes the service
// slot that frees first, a write the byte clock. Called with qmu held.
func (d *Mem) dueTime(r ioRequest, now int64) int64 {
	if r.write {
		if d.cfg.WriteBandwidth == 0 {
			return now
		}
		d.writeFree = max(now, d.writeFree) + int64(uint64(len(r.buf))*1e9/d.cfg.WriteBandwidth)
		return d.writeFree
	}
	slot := 0
	for i, free := range d.slots {
		if free < d.slots[slot] {
			slot = i
		}
	}
	d.slots[slot] = max(now, d.slots[slot]) + int64(d.cfg.ReadLatency)
	return d.slots[slot]
}

// deliver is the device's delivery goroutine. It exits once Close has
// been called and every request submitted before it has been delivered.
func (d *Mem) deliver() {
	defer close(d.stopped)
	var due []memRequest
	for {
		d.alarm.wait()
		d.qmu.Lock()
		d.wakeAt = wakeRunning
		for {
			due = d.popDue(due[:0])
			if len(due) == 0 {
				break
			}
			d.qmu.Unlock()
			for i := range due {
				d.serve(due[i].ioRequest)
				due[i] = memRequest{} // drop the buffer and the callback
			}
			d.qmu.Lock()
			d.outstanding -= len(due)
			if d.outstanding == 0 {
				d.drained.Broadcast()
			}
		}
		switch {
		case len(d.queue) > 0:
			d.wakeAt = d.queue[0].due
			d.alarm.set(time.Duration(d.wakeAt - d.now()))
		case d.closed:
			d.qmu.Unlock()
			return
		default:
			d.wakeAt = wakeNever
		}
		d.qmu.Unlock()
	}
}

// popDue moves every request due by now from the heap to out. Called
// with qmu held.
func (d *Mem) popDue(out []memRequest) []memRequest {
	now := d.now()
	for len(d.queue) > 0 && d.queue[0].due <= now {
		out = append(out, d.pop())
	}
	return out
}

// push and pop keep the binary heap by hand: container/heap would box
// every request in an interface, an allocation per I/O.
func (d *Mem) push(r memRequest) {
	q := append(d.queue, r)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	d.queue = q
}

func (d *Mem) pop() memRequest {
	q := d.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = memRequest{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	d.queue = q
	return top
}

// serve performs r at its due time and runs its callback.
func (d *Mem) serve(r ioRequest) {
	var err error
	if r.write {
		d.store(r.buf, r.offset)
		d.writes.Add(1)
		d.bytesWritten.Add(uint64(len(r.buf)))
	} else if err = d.readAt(r.buf, r.offset); err == nil {
		d.reads.Add(1)
		d.bytesRead.Add(uint64(len(r.buf)))
	}
	d.observe(r.write, r.submitNs)
	r.cb(err)
}

// store copies buf into a new extent at offset, replacing any extent that
// started there.
func (d *Mem) store(buf []byte, offset uint64) {
	ext := arena.Alloc(len(buf))
	copy(ext, buf)
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.extents[offset]; ok {
		arena.Free(old)
	}
	d.extents[offset] = ext
	if d.extentSize == 0 {
		d.extentSize = uint64(len(ext))
	}
	if end := offset + uint64(len(ext)); end > d.maxExtent {
		d.maxExtent = end
	}
}

// readAt assembles buf from stored extents. Extents are written at page
// granularity by the log, so a record read touches one or two extents.
func (d *Mem) readAt(buf []byte, offset uint64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if offset < d.truncated {
		return ErrOutOfRange
	}
	if offset+uint64(len(buf)) > d.maxExtent {
		return ErrOutOfRange
	}
	need := len(buf)
	filled := 0
	for filled < need {
		pos := offset + uint64(filled)
		ext, extOff, ok := d.findExtent(pos)
		if !ok {
			return ErrOutOfRange
		}
		n := copy(buf[filled:], ext[extOff:])
		filled += n
	}
	return nil
}

// findExtent locates the extent containing pos. Called with mu held.
func (d *Mem) findExtent(pos uint64) (ext []byte, off uint64, ok bool) {
	// Extents are page-sized and page-aligned in normal operation, so an
	// aligned probe hits first; fall back to a scan for irregular writes.
	if sz := d.extentSize; sz != 0 {
		start := pos - pos%sz
		if e, found := d.extents[start]; found && pos < start+uint64(len(e)) {
			return e, pos - start, true
		}
	}
	for start, e := range d.extents {
		if pos >= start && pos < start+uint64(len(e)) {
			return e, pos - start, true
		}
	}
	return nil, 0, false
}

// WriteAsync implements Device.
func (d *Mem) WriteAsync(buf []byte, offset uint64, cb Callback) {
	d.submit(ioRequest{write: true, buf: buf, offset: offset, cb: cb})
}

// ReadAsync implements Device.
func (d *Mem) ReadAsync(buf []byte, offset uint64, cb Callback) {
	d.submit(ioRequest{buf: buf, offset: offset, cb: cb})
}

// Sync implements Device: it waits until every request submitted so far
// has been delivered and its callback has returned.
func (d *Mem) Sync() error {
	d.qmu.Lock()
	for d.outstanding > 0 {
		d.drained.Wait()
	}
	d.qmu.Unlock()
	return nil
}

// Truncate implements Device and frees truncated extents.
func (d *Mem) Truncate(until uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if until > d.truncated {
		d.truncated = until
	}
	for start, e := range d.extents {
		if start+uint64(len(e)) <= d.truncated {
			arena.Free(e)
			delete(d.extents, start)
		}
	}
	return nil
}

// Stats returns I/O counters.
func (d *Mem) Stats() Stats { return d.snapshot() }

// Metrics implements MetricsSource.
func (d *Mem) Metrics() Metrics { return d.metricsSnapshot() }

// StoredBytes reports how many bytes the device currently retains.
func (d *Mem) StoredBytes() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n uint64
	for _, e := range d.extents {
		n += uint64(len(e))
	}
	return n
}

// Close implements Device. Requests already submitted are delivered at
// their due times first; later ones fail with ErrClosed. The stored data
// is released.
func (d *Mem) Close() error {
	d.qmu.Lock()
	already := d.closed
	d.closed = true
	if d.wakeAt == wakeNever {
		// The delivery goroutine sleeps with nothing queued: wake it to exit.
		d.wakeAt = 0
		d.alarm.set(0)
	}
	d.qmu.Unlock()
	<-d.stopped
	if already {
		return nil
	}
	d.alarm.close()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.extents {
		arena.Free(e)
	}
	d.extents = nil
	return nil
}

// alarm wakes Mem's delivery goroutine at a requested time.
type alarm interface {
	// set arms the alarm to fire after d (at once if d <= 0), replacing
	// any earlier setting.
	set(d time.Duration)
	// wait blocks until the alarm fires. It may return early; the caller
	// re-reads the clock.
	wait()
	close()
}

// timerAlarm is the portable alarm: a runtime timer. In an otherwise idle
// process the runtime rounds a sub-millisecond wait up to about a
// millisecond, which is why Linux uses a timerfd instead.
type timerAlarm struct{ t *time.Timer }

func newTimerAlarm() *timerAlarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{t: t}
}

// set re-arms the timer. Under the pre-Go 1.23 timer semantics a fire
// left unread in the channel survives the reset; that only makes wait
// return early.
func (a *timerAlarm) set(d time.Duration) { a.t.Reset(d) }
func (a *timerAlarm) wait()               { <-a.t.C }
func (a *timerAlarm) close()              { a.t.Stop() }
