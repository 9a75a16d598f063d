package faster

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/testutil"
)

// openSpillStore builds a small-buffer store over a fault-injecting
// device and spills it, returning the index of a key that reads cold.
func openSpillStore(t *testing.T) (*Store, *device.Faulty, uint64) {
	t.Helper()
	mem := device.NewMem(device.MemConfig{})
	faulty := device.NewFaulty(mem)
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mem.Close()
	})
	sess := s.StartSession()
	defer sess.Close()
	spill(t, s, sess, 1500)
	cold := uint64(0)
	found := false
	out := make([]byte, 8)
	for i := uint64(0); i < 1500 && !found; i++ {
		st, err := sess.Read(key(i), nil, out, nil)
		if st == Pending {
			sess.CompletePending(true)
			cold, found = i, true
		} else if st != OK || err != nil {
			t.Fatalf("probe %d: %v %v", i, st, err)
		}
	}
	if !found {
		t.Fatal("no key reads cold; shrink the buffer")
	}
	return s, faulty, cold
}

// submitResult is a one-shot done callback that counts deliveries, so
// the exactly-once contract is checked everywhere it is used.
type submitResult struct {
	ch    chan Result
	fires atomic.Int64
}

func newSubmitResult() *submitResult {
	return &submitResult{ch: make(chan Result, 1)}
}

func (r *submitResult) done(res Result) {
	r.fires.Add(1)
	r.ch <- res
}

func (r *submitResult) wait(t *testing.T, timeout time.Duration) Result {
	t.Helper()
	select {
	case res := <-r.ch:
		return res
	case <-time.After(timeout):
		t.Fatal("io-pool result not delivered")
		return Result{}
	}
}

func TestIOPoolCompletesColdReadAndRMW(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _, cold := openSpillStore(t)

	// Cold read: completed out of band, output in a pool-owned buffer.
	r := newSubmitResult()
	if err := s.SubmitRead(key(cold), nil, time.Now().Add(5*time.Second), "ctx", r.done); err != nil {
		t.Fatal(err)
	}
	res := r.wait(t, 5*time.Second)
	if res.Status != OK || !bytes.Equal(res.Output, u64(cold+1)) {
		t.Fatalf("cold read = %v %v %x, want OK %x", res.Status, res.Err, res.Output, u64(cold+1))
	}
	if res.Ctx != "ctx" {
		t.Fatalf("ctx = %v, want passthrough", res.Ctx)
	}

	// Cold RMW, then read the merged sum back.
	r2 := newSubmitResult()
	if err := s.SubmitRMW(key(cold), u64(41), time.Now().Add(5*time.Second), nil, r2.done); err != nil {
		t.Fatal(err)
	}
	if res := r2.wait(t, 5*time.Second); res.Status != OK {
		t.Fatalf("cold rmw = %v %v", res.Status, res.Err)
	}
	r3 := newSubmitResult()
	if err := s.SubmitRead(key(cold), nil, time.Time{}, nil, r3.done); err != nil {
		t.Fatal(err)
	}
	if res := r3.wait(t, 5*time.Second); res.Status != OK || !bytes.Equal(res.Output, u64(cold+42)) {
		t.Fatalf("read-after-rmw = %v %x, want OK %x", res.Status, res.Output, u64(cold+42))
	}

	// A hot (resident) key resolves synchronously on the worker, and a
	// missing key reports NotFound — neither is an error.
	r4 := newSubmitResult()
	if err := s.SubmitRead(key(1499), nil, time.Time{}, nil, r4.done); err != nil {
		t.Fatal(err)
	}
	if res := r4.wait(t, 5*time.Second); res.Status != OK {
		t.Fatalf("hot read = %v %v", res.Status, res.Err)
	}
	r5 := newSubmitResult()
	if err := s.SubmitRead([]byte("never-written"), nil, time.Time{}, nil, r5.done); err != nil {
		t.Fatal(err)
	}
	if res := r5.wait(t, 5*time.Second); res.Status != NotFound {
		t.Fatalf("missing read = %v, want NotFound", res.Status)
	}

	m := s.Metrics()
	if m.IOSubmitted < 5 || m.IODelivered < 5 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestIOPoolSubmitValidation(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _, _ := openSpillStore(t)
	if err := s.SubmitRead(key(1), nil, time.Time{}, nil, nil); err == nil {
		t.Fatal("nil done accepted")
	}
	if err := s.SubmitRead(nil, nil, time.Time{}, nil, func(Result) {}); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestIOPoolWouldBlock pins the session-side contract: a resident-only
// session refuses to issue storage I/O, returning WouldBlock for cold
// reads and RMWs while resident operations are untouched.
func TestIOPoolWouldBlock(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _, cold := openSpillStore(t)
	sess := s.StartSession()
	defer sess.Close()
	sess.SetResidentOnly(true)

	out := make([]byte, 8)
	if st, err := sess.Read(key(cold), nil, out, nil); st != WouldBlock || err != nil {
		t.Fatalf("resident-only cold read = %v %v, want WouldBlock", st, err)
	}
	if st, err := sess.RMW(key(cold), u64(1), nil); st != WouldBlock || err != nil {
		t.Fatalf("resident-only cold rmw = %v %v, want WouldBlock", st, err)
	}
	if st, err := sess.Read(key(1499), nil, out, nil); st != OK || err != nil {
		t.Fatalf("resident-only hot read = %v %v, want OK", st, err)
	}
	if st, err := sess.Upsert(key(7777), u64(1)); st != OK || err != nil {
		t.Fatalf("resident-only upsert = %v %v, want OK", st, err)
	}

	// Lifting the restriction restores the Pending slow path.
	sess.SetResidentOnly(false)
	if st, _ := sess.Read(key(cold), nil, out, nil); st == WouldBlock {
		t.Fatal("cold read still WouldBlock after reset")
	}
	sess.CompletePending(true)
}

// TestIOPoolDeadlineShed proves the delivery deadline holds even when
// the device never answers in time: the done callback fires with
// ErrOpDeadline by the deadline, fires exactly once (the eventual device
// completion is dropped), and the health ladder stays untripped — a
// deadline shed is back-pressure, not a device failure.
func TestIOPoolDeadlineShed(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, faulty, cold := openSpillStore(t)

	faulty.InjectLatency(1*time.Second, 0)
	defer faulty.InjectLatency(0, 0)

	r := newSubmitResult()
	begin := time.Now()
	if err := s.SubmitRead(key(cold), nil, begin.Add(50*time.Millisecond), nil, r.done); err != nil {
		t.Fatal(err)
	}
	res := r.wait(t, 3*time.Second)
	if res.Status != Err || !errors.Is(res.Err, ErrOpDeadline) {
		t.Fatalf("shed = %v %v, want ErrOpDeadline", res.Status, res.Err)
	}
	if waited := time.Since(begin); waited > 800*time.Millisecond {
		t.Fatalf("shed took %v; the deadline did not unblock the submitter", waited)
	}

	// The orphaned device completion lands ~1s later and must be dropped.
	time.Sleep(1200 * time.Millisecond)
	if n := r.fires.Load(); n != 1 {
		t.Fatalf("done fired %d times, want exactly once", n)
	}
	if h := s.Health(); h != Healthy {
		t.Fatalf("health = %v after deadline shed, want Healthy", h)
	}
	if m := s.Metrics(); m.IOShedTimeout == 0 {
		t.Fatalf("shed not counted: %+v", m)
	}
}

// TestIOPoolShedRMWNeverApplies pins the final-shed contract: an RMW the
// pool delivered as ErrOpDeadline never applies, neither when its device
// read lands after the shed (cold) nor when its fuzzy-region deferral
// could re-execute after the shed (fuzzy), so a caller may resend it.
func TestIOPoolShedRMWNeverApplies(t *testing.T) {
	// shed submits +41 under a 50 ms deadline and waits for its shed.
	shed := func(t *testing.T, s *Store, k []byte) {
		t.Helper()
		r := newSubmitResult()
		if err := s.SubmitRMW(k, u64(41), time.Now().Add(50*time.Millisecond), nil, r.done); err != nil {
			t.Fatal(err)
		}
		if res := r.wait(t, 3*time.Second); res.Status != Err || !errors.Is(res.Err, ErrOpDeadline) {
			t.Fatalf("rmw = %v %v, want ErrOpDeadline", res.Status, res.Err)
		}
	}
	t.Run("cold", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		s, faulty, cold := openSpillStore(t)
		faulty.InjectLatency(300*time.Millisecond, 0)
		shed(t, s, key(cold))
		testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Metrics().IOInflight == 0 },
			"the shed RMW's device read to land")
		faulty.InjectLatency(0, 0)
		sess := s.StartSession()
		defer sess.Close()
		if got, st := readU64(t, sess, key(cold)); st != OK || got != cold+1 {
			t.Fatalf("key after shed RMW = %d %v, want %d (the shed applied)", got, st, cold+1)
		}
	})
	t.Run("fuzzy", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		s, _ := openTestStore(t, Config{})
		holder := s.StartSession()
		defer holder.Close()
		if st, err := holder.Upsert(key(1), u64(7)); st != OK || err != nil {
			t.Fatalf("upsert: %v %v", st, err)
		}
		// The holder does not refresh, so the safe read-only offset stays
		// behind the shift: the record sits in the fuzzy region and the
		// worker's RMW defers until the deadline sheds it.
		s.Log().ShiftReadOnlyToTail()
		shed(t, s, key(1))
		holder.Refresh() // the deferral could now copy-update
		testutil.WaitUntil(t, 5*time.Second, func() bool { return s.Metrics().IOInflight == 0 },
			"the worker to retire the shed deferral")
		if s.Stats().FuzzyRMWs == 0 {
			t.Fatal("the RMW never deferred in the fuzzy region")
		}
		if got, st := readU64(t, holder, key(1)); st != OK || got != 7 {
			t.Fatalf("key after shed RMW = %d %v, want 7 (the shed applied)", got, st)
		}
	})
}

// TestIOPoolQueueFullSheds fills the bounded admission queue (worker
// wedged inside a device call via a blocking hook) and checks overflow
// sheds explicitly with ErrIOQueueFull, again without touching health.
func TestIOPoolQueueFullSheds(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := device.NewMem(device.MemConfig{})
	faulty := device.NewFaulty(mem)
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: faulty,
		IOWorkers: 1, IOQueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mem.Close()
	})
	sess := s.StartSession()
	spill(t, s, sess, 1500)
	cold := uint64(0)
	out := make([]byte, 8)
	for i := uint64(0); i < 1500; i++ {
		if st, _ := sess.Read(key(i), nil, out, nil); st == Pending {
			sess.CompletePending(true)
			cold = i
			break
		}
	}
	sess.Close()

	release := make(chan struct{})
	faulty.SetHook(func(op device.Op, _ uint64, _ int) error {
		if op == device.OpRead {
			<-release
		}
		return nil
	})
	defer faulty.SetHook(nil)

	// First submit wedges the only worker inside the device; the second
	// occupies the queue slot; the third must shed at admission.
	r1, r2 := newSubmitResult(), newSubmitResult()
	if err := s.SubmitRead(key(cold), nil, time.Time{}, nil, r1.done); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 5*time.Second,
		func() bool { return s.Metrics().IOQueueDepth == 0 },
		"worker to pick up the first request")
	if err := s.SubmitRead(key(cold), nil, time.Time{}, nil, r2.done); err != nil {
		t.Fatal(err)
	}
	err = s.SubmitRead(key(cold), nil, time.Time{}, nil, func(Result) { t.Error("shed op delivered") })
	if !errors.Is(err, ErrIOQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrIOQueueFull", err)
	}

	close(release)
	if res := r1.wait(t, 5*time.Second); res.Status != OK {
		t.Fatalf("first = %v %v", res.Status, res.Err)
	}
	if res := r2.wait(t, 5*time.Second); res.Status != OK {
		t.Fatalf("second = %v %v", res.Status, res.Err)
	}
	if h := s.Health(); h != Healthy {
		t.Fatalf("health = %v after queue-full shed, want Healthy", h)
	}
	if m := s.Metrics(); m.IOShedQueueFull == 0 {
		t.Fatalf("queue-full shed not counted: %+v", m)
	}
}

// TestIOPoolShutdownDrainsInflight closes the store while reads are in
// flight on a slow device: every submitted done must still fire exactly
// once (a real result or an explicit ErrStoreClosed — no silent drops),
// later submits must fail fast, and no worker goroutine may leak (the
// CheckGoroutines cleanup runs after Close).
func TestIOPoolShutdownDrainsInflight(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, faulty, cold := openSpillStore(t)

	faulty.InjectLatency(100*time.Millisecond, 0)
	defer faulty.InjectLatency(0, 0)

	const n = 16
	var fires atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		if err := s.SubmitRead(key(cold), nil, time.Now().Add(5*time.Second), nil, func(res Result) {
			if res.Status != OK && !errors.Is(res.Err, ErrStoreClosed) {
				t.Errorf("shutdown delivery = %v %v", res.Status, res.Err)
			}
			fires.Add(1)
			wg.Done()
		}); err != nil {
			wg.Done()
			fires.Add(1) // submit refused counts as resolved
		}
	}
	s.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d completions after shutdown", fires.Load(), n)
	}
	if fires.Load() != n {
		t.Fatalf("fires = %d, want %d", fires.Load(), n)
	}
	if err := s.SubmitRead(key(cold), nil, time.Time{}, nil, func(Result) {}); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("post-close submit = %v, want ErrStoreClosed", err)
	}
}

// TestIOPoolChaosSoak drives seeded concurrent submitters against a
// device running a latency-spike chaos schedule, then closes the store
// mid-flight. Every done must fire exactly once across the drain.
func TestIOPoolChaosSoak(t *testing.T) {
	for _, seed := range []int64{1, 42, 777} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			s, faulty, cold := openSpillStore(t)

			// Square-wave spikes: 20ms of +30ms latency every 40ms.
			faulty.SpikeLatency(30*time.Millisecond, 40*time.Millisecond, 20*time.Millisecond)
			defer faulty.SpikeLatency(0, 0, 0)

			var submitted, fired atomic.Int64
			var wg sync.WaitGroup
			stopSubmit := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*101 + g))
					for {
						select {
						case <-stopSubmit:
							return
						default:
						}
						k := key(cold + uint64(rng.Intn(64)))
						deadline := time.Now().Add(time.Duration(20+rng.Intn(200)) * time.Millisecond)
						var err error
						cb := func(Result) { fired.Add(1) }
						if rng.Intn(2) == 0 {
							err = s.SubmitRead(k, nil, deadline, nil, cb)
						} else {
							err = s.SubmitRMW(k, u64(1), deadline, nil, cb)
						}
						if err == nil {
							submitted.Add(1)
						}
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					}
				}(int64(g))
			}
			time.Sleep(300 * time.Millisecond)
			close(stopSubmit)
			wg.Wait()
			s.Close() // mid-flight: some ops are still live in the pool

			testutil.WaitUntil(t, 10*time.Second,
				func() bool { return fired.Load() == submitted.Load() },
				"every submitted op to deliver exactly once (%d/%d)", fired.Load(), submitted.Load())
		})
	}
}
