package faster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/device"
)

// Lifetime tests: the log's frames, the read cache and the index are
// arena memory that Close frees (mapped outside race builds). Run them
// without the race detector too.

// TestCloseRefusesOpenSessions: Close with a session still registered
// returns ErrSessionsOpen and frees nothing — the session keeps reading —
// and a Close after the session is gone frees everything.
func TestCloseRefusesOpenSessions(t *testing.T) {
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	s, err := Open(Config{Ops: SumOps{}, PageBits: 16, BufferPages: 4, IndexBuckets: 1 << 10,
		ReadCacheBytes: 1 << 20, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	if st, _ := sess.Upsert(key(1), u64(7)); st != OK {
		t.Fatal("upsert failed")
	}
	mem := s.Metrics().Memory
	if mem.LogFrames != 4<<16 || mem.Index != 1<<10*64 || mem.ReadCache == 0 {
		t.Fatalf("arena accounting %+v", mem)
	}
	if mem.ArenaLive < mem.LogFrames+mem.Index+mem.ReadCache || mem.GoHeap == 0 {
		t.Fatalf("process accounting %+v", mem)
	}

	if err := s.Close(); !errors.Is(err, ErrSessionsOpen) {
		t.Fatalf("Close with an open session = %v, want ErrSessionsOpen", err)
	}
	if got, st := readU64(t, sess, key(1)); st != OK || got != 7 {
		t.Fatalf("read after refused Close = (%d, %v)", got, st)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after the session closed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStoreCloseWaitsForDelayedFlush closes a store whose page flushes
// are held back inside a device.Faulty: Close must wait for them before
// it frees the log's frames, and the device must end up with every byte
// the log flushed.
func TestStoreCloseWaitsForDelayedFlush(t *testing.T) {
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	dev := device.NewFaulty(mem)
	dev.InjectLatency(0, 30*time.Millisecond)
	s, err := Open(Config{Ops: SumOps{}, PageBits: 14, BufferPages: 4, IndexBuckets: 1 << 10, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := uint64(0); s.Log().TailAddress() < 2<<14; i++ { // inside the buffer: no eviction waits
		if st, _ := sess.Upsert(key(i), u64(i)); st != OK {
			t.Fatal("upsert failed")
		}
	}
	issued := s.Log().ShiftReadOnlyToTail()
	sess.Close()
	s.Epoch().Drain() // runs the flush action
	if s.Log().FlushIssuedAddress() < issued || s.Log().FlushedUntilAddress() >= issued {
		t.Fatalf("flush of [0, %#x) not in flight: issued %#x, flushed %#x",
			issued, s.Log().FlushIssuedAddress(), s.Log().FlushedUntilAddress())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Log().FlushedUntilAddress(); got < issued {
		t.Fatalf("Close returned with flushes outstanding: flushed to %#x of %#x", got, issued)
	}
	if stored := mem.StoredBytes(); stored < issued {
		t.Fatalf("device holds %d bytes, the log flushed %d", stored, issued)
	}
}

// TestMetricsFromSessionDuringGrow: a session that stays registered
// calls Store.Metrics between operations while GrowIndex runs. Grow
// waits for the session to refresh, so Metrics must not wait for Grow.
func TestMetricsFromSessionDuringGrow(t *testing.T) {
	s, _ := openTestStore(t, Config{IndexBuckets: 1 << 10, BufferPages: 32})
	sess := s.StartSession()
	defer sess.Close()
	grown := make(chan error, 1)
	go func() {
		for range 3 {
			if err := s.GrowIndex(); err != nil {
				grown <- err
				return
			}
		}
		grown <- nil
	}()
	deadline := time.After(30 * time.Second)
	for i := uint64(0); ; i++ {
		select {
		case err := <-grown:
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Index().Size(); got != 1<<13 {
				t.Fatalf("index size %d after three grows", got)
			}
			return
		case <-deadline:
			t.Fatal("GrowIndex and a session calling Metrics deadlocked")
		default:
		}
		if st, _ := sess.Upsert(key(i%4096), u64(i)); st != OK {
			t.Fatal("upsert failed")
		}
		s.Metrics()
		sess.Refresh()
	}
}
