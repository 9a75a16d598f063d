package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testutil"
)

func TestAcquireReleaseBasics(t *testing.T) {
	m := New(4)
	if got := m.Registered(); got != 0 {
		t.Fatalf("Registered() = %d, want 0", got)
	}
	g := m.Acquire()
	if got := m.Registered(); got != 1 {
		t.Fatalf("Registered() = %d, want 1", got)
	}
	if g.Epoch() != m.Current() {
		t.Fatalf("guard epoch %d != current %d", g.Epoch(), m.Current())
	}
	g.Release()
	if got := m.Registered(); got != 0 {
		t.Fatalf("Registered() after release = %d, want 0", got)
	}
}

func TestAcquireExhaustionPanics(t *testing.T) {
	m := New(1)
	_ = m.Acquire()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when all slots are in use")
		}
	}()
	m.Acquire()
}

func TestBumpIncrementsCurrent(t *testing.T) {
	m := New(2)
	before := m.Current()
	prior := m.Bump()
	if prior != before {
		t.Fatalf("Bump() = %d, want prior epoch %d", prior, before)
	}
	if m.Current() != before+1 {
		t.Fatalf("Current() = %d, want %d", m.Current(), before+1)
	}
}

func TestTriggerActionRunsWhenNoThreadsRegistered(t *testing.T) {
	m := New(2)
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("action should run immediately with no registered threads")
	}
	if m.PendingActions() != 0 {
		t.Fatalf("PendingActions() = %d, want 0", m.PendingActions())
	}
}

func TestTriggerActionWaitsForLaggingThread(t *testing.T) {
	m := New(4)
	lagging := m.Acquire()
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran while a thread was still in the prior epoch")
	}

	// Another thread refreshing does not make the old epoch safe.
	other := m.Acquire()
	other.Refresh()
	if ran.Load() {
		t.Fatal("action ran before lagging thread refreshed")
	}

	lagging.Refresh()
	if !ran.Load() {
		t.Fatal("action did not run after all threads refreshed")
	}
	other.Release()
	lagging.Release()
}

func TestTriggerActionRunsOnRelease(t *testing.T) {
	m := New(4)
	g := m.Acquire()
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran too early")
	}
	g.Release() // releasing the only thread must let the action drain
	if !ran.Load() {
		t.Fatal("action did not run after sole thread released")
	}
}

func TestParkStopsPinning(t *testing.T) {
	m := New(4)
	idle := m.Acquire()
	active := m.Acquire()

	// An idle (but registered) thread blocks trigger actions...
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	active.Refresh()
	if ran.Load() {
		t.Fatal("action ran while the idle thread pinned its epoch")
	}

	// ...until it parks: parked threads pin nothing.
	idle.Park()
	active.Refresh()
	if !ran.Load() {
		t.Fatal("action did not run after the idle thread parked")
	}

	// A parked slot is still reserved: new acquires must not steal it.
	others := make([]*Guard, 0, 2)
	for i := 0; i < 2; i++ {
		others = append(others, m.Acquire())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("acquire beyond capacity did not panic: parked slot was stolen")
			}
		}()
		m.Acquire()
	}()
	for _, g := range others {
		g.Release()
	}

	// Unpark rejoins the current epoch and pins again.
	idle.Unpark()
	var ran2 atomic.Bool
	m.BumpWith(func() { ran2.Store(true) })
	active.Refresh()
	if ran2.Load() {
		t.Fatal("action ran while the unparked thread lagged")
	}
	idle.Refresh()
	if !ran2.Load() {
		t.Fatal("action did not run after the unparked thread refreshed")
	}

	idle.Release()
	active.Release()
}

// TestActionsRunExactlyOnce pins the epoch with a guard that does not
// refresh while actions are bumped — more of them, in the second case,
// than the drain list holds, so the rest spill to the overflow — and
// checks each runs exactly once after the refresh, none before.
func TestActionsRunExactlyOnce(t *testing.T) {
	for _, n := range []int64{100, 3 * drainListSize} {
		m := New(8)
		var count atomic.Int64
		g := m.Acquire()
		for i := int64(0); i < n; i++ {
			m.BumpWith(func() { count.Add(1) })
		}
		if got, pending := count.Load(), m.PendingActions(); got != 0 || int64(pending) != n {
			t.Fatalf("%d actions: %d ran and %d pending before the refresh, want 0 and %d", n, got, pending, n)
		}
		g.Refresh()
		m.Drain()
		if got := count.Load(); got != n {
			t.Fatalf("actions ran %d times, want %d", got, n)
		}
		if pending := m.PendingActions(); pending != 0 {
			t.Fatalf("%d actions still pending after the drain", pending)
		}
		g.Release()
	}
}

func TestActionsOrderedBySafety(t *testing.T) {
	// An action bumped at epoch c must never run before an earlier thread
	// has seen epoch > c. Model the canonical status/active-now example.
	m := New(4)
	observer := m.Acquire()

	var status atomic.Int32
	var observedAtTrigger int32 = -1
	status.Store(1) // becomes "active"
	m.BumpWith(func() { observedAtTrigger = status.Load() })

	// The observer has not refreshed; trigger must not have fired.
	if observedAtTrigger != -1 {
		t.Fatal("trigger fired before observer refreshed")
	}
	observer.Refresh()
	if observedAtTrigger != 1 {
		t.Fatalf("trigger saw status %d, want 1", observedAtTrigger)
	}
	observer.Release()
}

func TestSafeEpochInvariant(t *testing.T) {
	// Invariant from §2.3: for all registered T, Es <= E_T <= E.
	m := New(8)
	guards := make([]*Guard, 5)
	for i := range guards {
		guards[i] = m.Acquire()
		m.Bump()
	}
	m.Drain()
	e := m.Current()
	es := m.Safe()
	for i, g := range guards {
		et := g.Epoch()
		if !(es <= et && et <= e) {
			t.Fatalf("guard %d: invariant Es(%d) <= Et(%d) <= E(%d) violated", i, es, et, e)
		}
	}
	for _, g := range guards {
		g.Release()
	}
}

func TestConcurrentRefreshAndBump(t *testing.T) {
	m := New(64)
	const (
		workers = 16
		bumps   = 200
	)
	var executed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := m.Acquire()
			defer g.Release()
			for {
				select {
				case <-stop:
					return
				default:
					g.Refresh()
				}
			}
		}()
	}
	for i := 0; i < bumps; i++ {
		m.BumpWith(func() { executed.Add(1) })
	}
	// Give refreshers a bounded window to drain everything, then stop
	// them. Eventually (not WaitUntil): on timeout the refresher
	// goroutines must still be stopped before the final assertion fails
	// the test with the real counts.
	testutil.Eventually(5*time.Second, func() bool {
		m.Drain()
		return executed.Load() == bumps
	})
	close(stop)
	wg.Wait()
	m.Drain()
	if got := executed.Load(); got != bumps {
		t.Fatalf("executed %d actions, want %d", got, bumps)
	}
}

func TestConcurrentAcquireReleaseSlotsStable(t *testing.T) {
	m := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g := m.Acquire()
				g.Refresh()
				g.Release()
			}
		}()
	}
	wg.Wait()
	if got := m.Registered(); got != 0 {
		t.Fatalf("Registered() = %d after all released, want 0", got)
	}
}

func TestDrainListRecyclesSlots(t *testing.T) {
	m := New(2)
	// Far more actions than drainListSize; with no registered threads each
	// drains inline, so slots must recycle without panicking.
	var n atomic.Int64
	for i := 0; i < drainListSize*4; i++ {
		m.BumpWith(func() { n.Add(1) })
	}
	if got := n.Load(); got != drainListSize*4 {
		t.Fatalf("ran %d actions, want %d", got, drainListSize*4)
	}
}

// Property: after an arbitrary sequence of bumps, the safe epoch never
// exceeds current-1, and with no registered threads every action drains.
func TestQuickSafeNeverExceedsCurrent(t *testing.T) {
	f := func(nBumps uint8) bool {
		m := New(4)
		var ran atomic.Int64
		for i := 0; i < int(nBumps); i++ {
			m.BumpWith(func() { ran.Add(1) })
		}
		m.Drain()
		return m.Safe() <= m.Current()-1 && ran.Load() == int64(nBumps) &&
			m.PendingActions() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with one registered lagging thread, no action bumped after its
// acquisition runs until it refreshes, regardless of bump count.
func TestQuickLaggingThreadBlocksActions(t *testing.T) {
	f := func(nBumps uint8) bool {
		if nBumps == 0 {
			return true
		}
		n := int(nBumps)
		if n > drainListSize {
			n = drainListSize
		}
		m := New(4)
		g := m.Acquire()
		var ran atomic.Int64
		for i := 0; i < n; i++ {
			m.BumpWith(func() { ran.Add(1) })
		}
		blockedOK := ran.Load() == 0
		g.Refresh()
		m.Drain()
		g.Release()
		return blockedOK && ran.Load() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRefresh(b *testing.B) {
	m := New(8)
	g := m.Acquire()
	defer g.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Refresh()
	}
}

func BenchmarkBumpWith(b *testing.B) {
	m := New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BumpWith(func() {})
	}
}

func TestChaosAcquireReleaseBumpInvariants(t *testing.T) {
	// Mixed Acquire/Refresh/Release and BumpWith from many goroutines:
	// every action must run exactly once, and the safe epoch must never
	// exceed the current epoch.
	m := New(64)
	const workers = 8
	var executed atomic.Int64
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g := m.Acquire()
				if i%3 == 0 {
					issued.Add(1)
					m.BumpWith(func() { executed.Add(1) })
				}
				g.Refresh()
				if m.Safe() > m.Current() {
					t.Error("safe epoch exceeds current")
				}
				g.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	m.Drain()
	if executed.Load() != issued.Load() {
		t.Fatalf("executed %d of %d actions", executed.Load(), issued.Load())
	}
}
