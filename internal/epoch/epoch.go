// Package epoch implements the extended epoch-protection framework from
// Section 2.3 of the FASTER paper (SIGMOD 2018).
//
// The framework maintains a shared atomic counter E (the current epoch) and a
// table of thread-local epoch values, one cache line per slot. An epoch c is
// safe once every registered thread has advanced strictly past c. On top of
// the basic protection scheme the framework supports trigger actions: a
// thread can bump the current epoch from c to c+1 and attach a callback that
// the system runs exactly once, at some point after epoch c has become safe.
//
// Threads (in Go: goroutines that own a session) interact with the framework
// through four operations, mirroring Section 2.4 of the paper:
//
//	Acquire   reserve a slot and join the current epoch
//	Refresh   publish the current epoch and run any ready trigger actions
//	BumpWith  increment the current epoch, attaching a trigger action
//	Release   leave the epoch table
//
// The manager is generic: it knows nothing about logs, indexes or stores.
// FASTER uses it for page flushing, page eviction, safe-read-only offset
// advancement, index resizing and checkpointing.
package epoch

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

const (
	// Unprotected is the epoch value published by a slot that is not
	// currently protecting any epoch.
	Unprotected uint64 = 0

	// drainListSize is the capacity of the (epoch, action) drain list. The
	// paper implements the drain list as a small array scanned on refresh;
	// it only needs to hold actions whose epochs are not yet safe.
	drainListSize = 256

	// cacheLineBytes is the assumed cache line size; each epoch-table slot
	// is padded to this size so threads never false-share their entries.
	cacheLineBytes = 64
)

// entry is a single epoch-table slot, padded to a cache line.
type entry struct {
	localEpoch atomic.Uint64 // thread-local epoch, or Unprotected
	reentrant  atomic.Uint64 // nested Acquire count for this slot
	_          [cacheLineBytes - 16]byte
}

// drainItem is one pending trigger action. epoch holds the epoch that must
// become safe before action runs; a zero epoch marks a free slot.
type drainItem struct {
	epoch      atomic.Uint64
	action     func()
	enqueuedNs int64 // wall time of enqueue, for bump-to-safe latency
}

// overflowItem is a pending trigger action that found the drain list full.
type overflowItem struct {
	epoch      uint64
	action     func()
	enqueuedNs int64
}

// Action is a trigger callback executed exactly once after its epoch is safe.
type Action = func()

// Manager is the shared epoch state: the current epoch counter, the table of
// per-thread epochs and the drain list of pending trigger actions.
//
// A Manager must be created with New. All methods are safe for concurrent
// use. Guard methods take a *Guard obtained from Acquire.
type Manager struct {
	// current is read by every Refresh but written only on bumps; the
	// padding keeps the write-hot words below (safe, drainCnt) off its
	// cache line, so routine refreshes across sessions never invalidate
	// each other's cached copy.
	current atomic.Uint64 // the current epoch E
	_       [cacheLineBytes - 8]byte

	safe     atomic.Uint64 // cached maximal safe epoch Es
	drainCnt atomic.Int64  // number of occupied drain-list slots
	_        [cacheLineBytes - 16]byte

	table     []entry
	drainList [drainListSize]drainItem

	// overflow holds the actions enqueued while every drain-list slot was
	// taken; overflowCnt mirrors its length so drains skip the lock when
	// it is empty. Both count towards drainCnt.
	overflowMu  sync.Mutex
	overflow    []overflowItem
	overflowCnt atomic.Int64

	mx struct {
		bumps      metrics.Counter
		actionsRun metrics.Counter
		bumpToSafe metrics.Histogram // enqueue -> action-run latency
	}
}

// New creates a Manager with capacity for maxSlots concurrently registered
// threads. maxSlots must be at least 1; typical values are a small multiple
// of GOMAXPROCS.
func New(maxSlots int) *Manager {
	if maxSlots < 1 {
		panic("epoch: maxSlots must be >= 1")
	}
	m := &Manager{table: make([]entry, maxSlots)}
	m.current.Store(1) // epoch 0 is reserved: it is trivially safe
	return m
}

// Guard represents one registered thread's membership in the epoch table.
// It is not safe for concurrent use; exactly one goroutine drives a Guard.
type Guard struct {
	m    *Manager
	slot int
}

// Safe returns the most recently computed maximal safe epoch Es. It is a
// conservative (monotone) lower bound of the true safe epoch.
func (m *Manager) Safe() uint64 { return m.safe.Load() }

// Acquire reserves an epoch-table slot for the calling goroutine and
// publishes the current epoch into it. It returns a Guard used for all
// subsequent operations. Acquire panics if every slot is taken.
func (m *Manager) Acquire() *Guard {
	for i := range m.table {
		e := &m.table[i]
		if e.localEpoch.Load() == Unprotected &&
			e.localEpoch.CompareAndSwap(Unprotected, m.current.Load()) {
			e.reentrant.Store(1)
			return &Guard{m: m, slot: i}
		}
	}
	panic(fmt.Sprintf("epoch: all %d slots in use", len(m.table)))
}

// Release removes the guard's entry from the epoch table. The guard must not
// be used afterwards. Releasing lets the epochs the thread was pinning
// become safe, so Release also attempts a drain.
func (g *Guard) Release() {
	e := &g.m.table[g.slot]
	if e.reentrant.Add(^uint64(0)) != 0 { // decrement; still nested
		return
	}
	e.localEpoch.Store(Unprotected)
	if g.m.drainCnt.Load() > 0 {
		g.m.computeSafeAndDrain(g.m.current.Load())
	}
	g.m = nil
}

// Refresh publishes the current epoch into the guard's slot, recomputes the
// maximal safe epoch, and runs any drain-list actions that became safe.
// FASTER threads call Refresh periodically (e.g. every 256 operations).
func (g *Guard) Refresh() {
	cur := g.m.current.Load()
	g.m.table[g.slot].localEpoch.Store(cur)
	if g.m.drainCnt.Load() > 0 {
		g.m.computeSafeAndDrain(cur)
	}
}

// parkedEpoch is the sentinel a parked guard publishes: distinct from
// Unprotected (so Acquire cannot steal the slot) and high enough that
// computeSafeAndDrain never treats it as pinning an epoch.
const parkedEpoch = math.MaxUint64

// Park keeps the guard's slot reserved but stops pinning any epoch, and
// then attempts a drain so actions this thread was blocking can run.
// A parked thread holds no protection whatsoever: it must not touch any
// epoch-protected memory until it calls Unpark. Park is what lets a
// session pool hold idle sessions without stalling flushes, evictions
// and safe-read-only advancement for everyone else.
func (g *Guard) Park() {
	g.m.table[g.slot].localEpoch.Store(parkedEpoch)
	if g.m.drainCnt.Load() > 0 {
		g.m.computeSafeAndDrain(g.m.current.Load())
	}
}

// Unpark rejoins the current epoch after a Park.
func (g *Guard) Unpark() { g.Refresh() }

// Epoch returns the epoch currently published by this guard.
func (g *Guard) Epoch() uint64 { return g.m.table[g.slot].localEpoch.Load() }

// Bump atomically increments the current epoch and returns the previous
// value c. All threads that refresh after the bump observe at least c+1.
func (m *Manager) Bump() uint64 {
	m.mx.bumps.Inc()
	return m.current.Add(1) - 1
}

// BumpWith increments the current epoch from c to c+1 and registers action
// to run once epoch c is safe, i.e. once every registered thread has
// refreshed past c. The action runs exactly once, on whichever thread next
// drains the list after safety; it may run inline if c is already safe.
func (m *Manager) BumpWith(action Action) {
	prior := m.Bump()
	m.enqueue(prior, action)
	// Opportunistically drain: if no other thread is registered, or all
	// have refreshed, the action can run immediately.
	m.computeSafeAndDrain(m.current.Load())
}

// enqueue adds (epoch, action) to the drain list. When every slot is
// taken it helps drain once and, if the list is still full, spills the
// action to the mutex-guarded overflow slice that every drain also
// scans. It never waits: a full list means some thread has not refreshed
// yet, and that thread may be the caller itself.
func (m *Manager) enqueue(epoch uint64, action Action) {
	if m.tryEnqueue(epoch, action) {
		return
	}
	m.computeSafeAndDrain(m.current.Load())
	if m.tryEnqueue(epoch, action) {
		return
	}
	m.overflowMu.Lock()
	m.overflow = append(m.overflow, overflowItem{epoch: epoch, action: action, enqueuedNs: time.Now().UnixNano()})
	m.overflowCnt.Add(1)
	m.drainCnt.Add(1)
	m.overflowMu.Unlock()
}

// tryEnqueue claims a free drain-list slot for (epoch, action).
func (m *Manager) tryEnqueue(epoch uint64, action Action) bool {
	for i := range m.drainList {
		it := &m.drainList[i]
		// Claim the slot with CAS; install action before publishing the
		// epoch so a concurrent drainer never sees a claimed slot without
		// its action.
		if it.epoch.Load() == 0 && it.epoch.CompareAndSwap(0, math.MaxUint64) {
			it.action = action
			it.enqueuedNs = time.Now().UnixNano()
			it.epoch.Store(epoch)
			m.drainCnt.Add(1)
			return true
		}
	}
	return false
}

// computeSafeAndDrain recomputes the maximal safe epoch by scanning the
// epoch table and then triggers every drain-list action whose epoch is safe.
// Each action is claimed with a CAS so it runs exactly once.
func (m *Manager) computeSafeAndDrain(currentEpoch uint64) {
	safe := currentEpoch - 1
	for i := range m.table {
		le := m.table[i].localEpoch.Load()
		if le != Unprotected && le-1 < safe {
			safe = le - 1
		}
	}
	// Monotonically raise the cached safe epoch.
	for {
		old := m.safe.Load()
		if safe <= old || m.safe.CompareAndSwap(old, safe) {
			break
		}
	}
	if m.drainCnt.Load() == 0 {
		return
	}
	for i := range m.drainList {
		it := &m.drainList[i]
		ep := it.epoch.Load()
		if ep == 0 || ep == math.MaxUint64 || ep > safe {
			continue
		}
		// Claim: mark in-flight so no other thread runs it.
		if !it.epoch.CompareAndSwap(ep, math.MaxUint64) {
			continue
		}
		action := it.action
		enqueuedNs := it.enqueuedNs
		it.action = nil
		it.epoch.Store(0) // free the slot
		m.drainCnt.Add(-1)
		m.runAction(action, enqueuedNs)
	}
	if m.overflowCnt.Load() > 0 {
		m.drainOverflow(safe)
	}
}

// drainOverflow runs the overflow actions whose epochs are safe. They are
// taken out under the lock and run after it is released, so an action may
// itself bump and enqueue.
func (m *Manager) drainOverflow(safe uint64) {
	var ready []overflowItem
	m.overflowMu.Lock()
	kept := m.overflow[:0]
	for _, it := range m.overflow {
		if it.epoch <= safe {
			ready = append(ready, it)
		} else {
			kept = append(kept, it)
		}
	}
	clear(m.overflow[len(kept):])
	m.overflow = kept
	m.overflowCnt.Add(-int64(len(ready)))
	m.drainCnt.Add(-int64(len(ready)))
	m.overflowMu.Unlock()
	for _, it := range ready {
		m.runAction(it.action, it.enqueuedNs)
	}
}

func (m *Manager) runAction(action Action, enqueuedNs int64) {
	m.mx.actionsRun.Inc()
	m.mx.bumpToSafe.ObserveNs(uint64(max64(0, time.Now().UnixNano()-enqueuedNs)))
	action()
}

// Drain runs all pending trigger actions whose epochs are safe, first
// recomputing safety. Useful at shutdown and in tests.
func (m *Manager) Drain() {
	m.computeSafeAndDrain(m.current.Load())
}

// Wait's back-off: Gosched for the first waitSpins rounds, then sleep.
const (
	waitSpins = 128
	waitSleep = 10 * time.Microsecond
)

// Wait blocks until done reports true or stop reports an error, and keeps
// the epoch moving meanwhile. It is for waits on another thread's epoch
// progress (a page turn, a flush, a drain), which no channel announces.
// Each round refreshes g, the caller's own guard — a waiter that pins its
// epoch blocks the very trigger action it waits for, and the refresh runs
// the actions that became ready — then yields: Gosched for the first
// rounds, short sleeps after, so a long wait does not starve the threads
// it waits on. g may be nil when the caller holds no guard; the round then
// only drains. done may also nudge the state it polls.
func (m *Manager) Wait(g *Guard, done func() bool, stop func() error) error {
	for spins := 0; !done(); spins++ {
		if err := stop(); err != nil {
			return err
		}
		switch {
		case g == nil:
			m.Drain()
		case !(mutationsEnabled && mutSkipWaitRefresh()):
			g.Refresh()
		}
		if spins > waitSpins {
			time.Sleep(waitSleep)
		} else {
			runtime.Gosched()
		}
	}
	return nil
}

// PendingActions reports the number of trigger actions not yet executed.
func (m *Manager) PendingActions() int { return int(m.drainCnt.Load()) }

// Registered reports how many slots are currently occupied.
func (m *Manager) Registered() int {
	n := 0
	for i := range m.table {
		if m.table[i].localEpoch.Load() != Unprotected {
			n++
		}
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Metrics is a snapshot of the epoch framework's instrumentation: the
// epoch counters, the drain-list depth, and the latency from a BumpWith
// enqueue to its trigger action running (the bump-to-safe latency of
// §2.4, which bounds how quickly flushes and evictions take effect).
type Metrics struct {
	CurrentEpoch   uint64
	SafeEpoch      uint64
	DrainListDepth int64
	Registered     int
	Bumps          uint64
	ActionsRun     uint64
	BumpToSafe     metrics.HistogramSnapshot
}

// Metrics returns a snapshot of the manager's instrumentation.
func (m *Manager) Metrics() Metrics {
	return Metrics{
		CurrentEpoch:   m.current.Load(),
		SafeEpoch:      m.safe.Load(),
		DrainListDepth: m.drainCnt.Load(),
		Registered:     m.Registered(),
		Bumps:          m.mx.bumps.Load(),
		ActionsRun:     m.mx.actionsRun.Load(),
		BumpToSafe:     m.mx.bumpToSafe.Snapshot(),
	}
}
