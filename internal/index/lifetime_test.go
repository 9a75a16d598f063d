package index

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/xhash"
)

// Lifetime tests: tables are arena memory (mapped outside race builds),
// so touching a retired table after Grow freed it faults. Run them
// without the race detector too.

// TestRetiredTableOutlivesGuards holds an Entry into the table Grow is
// replacing, taken during the prepare phase, on a guard that does not
// refresh. Grow must finish, but the old table must stay mapped — the
// Entry still reads its poisoned slot — until that guard refreshes.
func TestRetiredTableOutlivesGuards(t *testing.T) {
	em := epoch.New(8)
	idx := newTestIndex(t, 512) // 32 KiB of buckets
	defer idx.Close()
	h := xhash.Uint64(42)
	if e, _ := idx.FindOrCreateEntry(h); !e.CompareAndSwapAddress(0, 4242) {
		t.Fatal("insert failed")
	}
	old := idx.activeTable()

	reader := em.Acquire()  // takes the stale Entry, then sits on it
	blocker := em.Acquire() // holds Grow in prepare until the Entry is taken
	grown := make(chan error, 1)
	before := em.Metrics().CurrentEpoch
	go func() { grown <- idx.Grow(em) }()
	waitPhase(t, idx, phasePrepare, nil)
	for em.Metrics().CurrentEpoch == before {
		runtime.Gosched() // the reader must refresh past the prepare bump
	}
	reader.Refresh()
	e, addr, ok := idx.FindEntry(h) // routed to the old table
	if !ok || addr != 4242 {
		t.Fatalf("FindEntry in prepare = (%v, %d)", ok, addr)
	}
	waitPhase(t, idx, phaseStable, blocker.Refresh)
	if err := <-grown; err != nil {
		t.Fatal(err)
	}
	blocker.Refresh()

	if w := e.Load(); w != poisonWord {
		t.Fatalf("stale slot = %#x, want the poison word", w)
	}
	if e.CompareAndSwapAddress(4242, 1) {
		t.Fatal("CAS through a migrated slot succeeded")
	}
	old.ovMu.Lock()
	freed := old.mem == nil
	old.ovMu.Unlock()
	if freed {
		t.Fatal("retired table freed while a guard still held one of its slots")
	}

	reader.Refresh()
	em.Drain()
	old.ovMu.Lock()
	freed = old.mem == nil
	old.ovMu.Unlock()
	if !freed {
		t.Fatal("retired table not freed once every guard refreshed")
	}
	if _, got, ok := idx.FindEntry(h); !ok || got != 4242 {
		t.Fatalf("after grow: (%v, %d)", ok, got)
	}
	reader.Release()
	blocker.Release()
}

// TestReadersHoldGuardsAcrossGrow runs guarded readers and writers that
// keep Entries across a few operations between refreshes while the
// index doubles several times. A table freed before its last reader
// refreshed faults.
func TestReadersHoldGuardsAcrossGrow(t *testing.T) {
	em := epoch.New(16)
	idx := newTestIndex(t, 256) // 16 KiB: every table is mapped
	defer idx.Close()
	const keys = 4096
	// Keys sharing a bucket and tag share an entry (the index stores no
	// keys), so the expectation is what each key resolves to after setup.
	want := make([]uint64, keys)
	for i := uint64(0); i < keys; i++ {
		e, _ := idx.FindOrCreateEntry(xhash.Uint64(i))
		e.CompareAndSwapAddress(0, i+64)
	}
	for i := uint64(0); i < keys; i++ {
		_, want[i], _ = idx.FindEntry(xhash.Uint64(i))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			rng := rand.New(rand.NewSource(seed))
			held := make([]Entry, 0, 8)
			for !stop.Load() {
				for range 8 {
					i := uint64(rng.Intn(keys))
					if e, addr, ok := idx.FindEntry(xhash.Uint64(i)); ok {
						held = append(held, e)
						e.CompareAndSwapAddress(addr, addr) // may fail on a poisoned slot
					}
				}
				for _, e := range held {
					_ = e.Load() // still inside the same epoch
				}
				held = held[:0]
				g.Refresh()
			}
		}(int64(r))
	}
	for range 5 {
		if err := idx.Grow(em); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	em.Drain()
	if got := idx.Size(); got != 256<<5 {
		t.Fatalf("size %d after five grows", got)
	}
	for i := uint64(0); i < keys; i++ {
		if _, addr, ok := idx.FindEntry(xhash.Uint64(i)); !ok || addr != want[i] {
			t.Fatalf("key %d = (%v, %d)", i, ok, addr)
		}
	}
}

// tableFreed reports whether t's memory has been released.
func tableFreed(t *table) bool {
	t.ovMu.Lock()
	defer t.ovMu.Unlock()
	return t.mem == nil
}

// TestWalkPinsRetiredTable parks a ForEachEntry walk mid-table while a
// Grow retires that table. Grow must not wait for the walk, and the
// table must stay mapped until the walk returns.
func TestWalkPinsRetiredTable(t *testing.T) {
	em := epoch.New(4)
	idx := newTestIndex(t, 512)
	defer idx.Close()
	for i := uint64(0); i < 64; i++ {
		e, _ := idx.FindOrCreateEntry(xhash.Uint64(i))
		e.CompareAndSwapAddress(0, i+64)
	}
	old := idx.activeTable()
	inWalk, resume, walked := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		idx.ForEachEntry(func(uint64) {
			if n++; n == 1 {
				close(inWalk)
				<-resume
			}
		})
		walked <- n
	}()
	<-inWalk
	if err := idx.Grow(em); err != nil {
		t.Fatal(err)
	}
	em.Drain()
	if tableFreed(old) {
		t.Fatal("retired table freed under a walk that still reads it")
	}
	close(resume)
	if n := <-walked; n == 0 {
		t.Fatal("walk saw no entries")
	}
	if !tableFreed(old) {
		t.Fatal("retired table not freed when its last walk returned")
	}
}

// TestCheckpointDuringMetrics checkpoints while Metrics scans the index
// in a loop: the walks share the table, so no checkpoint may fail.
func TestCheckpointDuringMetrics(t *testing.T) {
	idx := newTestIndex(t, 1<<12)
	defer idx.Close()
	for i := uint64(0); i < 2000; i++ {
		e, _ := idx.FindOrCreateEntry(xhash.Uint64(i))
		e.CompareAndSwapAddress(0, i+64)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			idx.Metrics()
		}
	}()
	defer func() { stop.Store(true); <-done }()
	for i := range 200 {
		if err := idx.WriteCheckpoint(io.Discard); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
}

// TestMetricsUnderGuardDuringGrow calls Metrics and ForEachEntry from a
// thread that holds an epoch guard and refreshes it only between calls,
// while Grow runs. Grow waits for that refresh, so a walk that waited
// for Grow would hang both.
func TestMetricsUnderGuardDuringGrow(t *testing.T) {
	em := epoch.New(4)
	idx := newTestIndex(t, 1<<10)
	defer idx.Close()
	for i := uint64(0); i < 4000; i++ {
		e, _ := idx.FindOrCreateEntry(xhash.Uint64(i))
		e.CompareAndSwapAddress(0, i+64)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		g := em.Acquire()
		defer g.Release()
		grown := make(chan error, 1)
		go func() {
			for range 3 {
				if err := idx.Grow(em); err != nil {
					grown <- err
					return
				}
			}
			grown <- nil
		}()
		for {
			select {
			case err := <-grown:
				if err != nil {
					t.Error(err)
				}
				return
			default:
			}
			idx.Metrics()
			idx.ForEachEntry(func(uint64) {})
			g.Refresh()
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Grow and a guarded Metrics caller deadlocked")
	}
	if got := idx.Size(); got != 1<<13 {
		t.Fatalf("size %d after three grows", got)
	}
}
