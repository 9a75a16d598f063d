package faster

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/testutil"
)

// u64 encodes a uint64 as 8 little-endian bytes.
func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func key(i uint64) []byte { return u64(i) }

// openTestStore builds a hybrid-mode store with small pages so tests
// exercise page rolls, flushes and evictions quickly.
func openTestStore(t testing.TB, cfg Config) (*Store, *device.Mem) {
	t.Helper()
	dev := device.NewMem(device.MemConfig{})
	if cfg.Ops == nil {
		cfg.Ops = SumOps{}
	}
	if cfg.PageBits == 0 {
		cfg.PageBits = 12
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 8
	}
	if cfg.IndexBuckets == 0 {
		cfg.IndexBuckets = 1 << 10
	}
	if cfg.Device == nil {
		cfg.Device = dev
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		dev.Close()
	})
	return s, dev
}

// readU64 is a test helper: blocking read of an 8-byte value.
func readU64(t testing.TB, sess *Session, k []byte) (uint64, Status) {
	t.Helper()
	out := make([]byte, 8)
	st, err := sess.Read(k, nil, out, nil)
	if err != nil {
		t.Fatalf("Read(%x): %v", k, err)
	}
	if st == Pending {
		results := sess.CompletePending(true)
		if len(results) != 1 {
			t.Fatalf("CompletePending returned %d results, want 1", len(results))
		}
		st = results[0].Status
	}
	return binary.LittleEndian.Uint64(out), st
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Ops should fail")
	}
	if _, err := Open(Config{Ops: BlobOps{}, CRDT: true}); err == nil {
		t.Fatal("CRDT without MergeOps should fail")
	}
	if _, err := Open(Config{Ops: SumOps{}, Mode: hlog.ModeHybrid}); err == nil {
		t.Fatal("hybrid mode without device should fail")
	}
}

func TestUpsertReadRoundTrip(t *testing.T) {
	s, _ := openTestStore(t, Config{Ops: BlobOps{}})
	sess := s.StartSession()
	defer sess.Close()

	if st, err := sess.Upsert(key(1), u64(42)); err != nil || st != OK {
		t.Fatalf("Upsert = (%v, %v)", st, err)
	}
	got, st := readU64(t, sess, key(1))
	if st != OK || got != 42 {
		t.Fatalf("Read = (%d, %v), want (42, OK)", got, st)
	}
}

func TestReadMissingKey(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	if _, st := readU64(t, sess, key(404)); st != NotFound {
		t.Fatalf("status = %v, want NotFound", st)
	}
}

func TestUpsertOverwrites(t *testing.T) {
	s, _ := openTestStore(t, Config{Ops: BlobOps{}})
	sess := s.StartSession()
	defer sess.Close()
	sess.Upsert(key(1), u64(1))
	sess.Upsert(key(1), u64(2))
	got, st := readU64(t, sess, key(1))
	if st != OK || got != 2 {
		t.Fatalf("Read = (%d, %v), want (2, OK)", got, st)
	}
	// The second upsert should have been in place (mutable region).
	if s.Stats().InPlace == 0 {
		t.Fatal("expected at least one in-place update")
	}
}

func TestRMWInitialAndIncrement(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	for i := 0; i < 10; i++ {
		if st, err := sess.RMW(key(7), u64(5), nil); err != nil || st != OK {
			t.Fatalf("RMW %d = (%v, %v)", i, st, err)
		}
	}
	got, st := readU64(t, sess, key(7))
	if st != OK || got != 50 {
		t.Fatalf("counter = (%d, %v), want (50, OK)", got, st)
	}
}

func TestDeleteInMutableRegion(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	sess.RMW(key(1), u64(1), nil)
	if st, err := sess.Delete(key(1)); err != nil || st != OK {
		t.Fatalf("Delete = (%v, %v)", st, err)
	}
	if _, st := readU64(t, sess, key(1)); st != NotFound {
		t.Fatalf("read after delete = %v, want NotFound", st)
	}
	// Delete again: gone.
	if st, _ := sess.Delete(key(1)); st != NotFound {
		t.Fatalf("double delete = %v, want NotFound", st)
	}
}

func TestDeleteMissing(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	if st, _ := sess.Delete(key(1)); st != NotFound {
		t.Fatalf("Delete missing = %v, want NotFound", st)
	}
}

func TestRMWAfterDeleteReinserts(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	sess.RMW(key(1), u64(10), nil)
	sess.Delete(key(1))
	sess.RMW(key(1), u64(3), nil)
	got, st := readU64(t, sess, key(1))
	if st != OK || got != 3 {
		t.Fatalf("counter after delete+rmw = (%d, %v), want (3, OK)", got, st)
	}
}

func TestManyKeysInMemory(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 64})
	sess := s.StartSession()
	defer sess.Close()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if st, err := sess.RMW(key(i), u64(i), nil); err != nil || st != OK {
			t.Fatalf("RMW(%d) = (%v, %v)", i, st, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		got, st := readU64(t, sess, key(i))
		if st != OK || got != i {
			t.Fatalf("Read(%d) = (%d, %v)", i, got, st)
		}
	}
}

func TestLargerThanMemorySpillAndReadBack(t *testing.T) {
	// 8 x 4KB buffer (~32 KB) but ~60 KB of records: older records spill
	// to the device and reads go async.
	s, dev := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	const n = 1500
	for i := uint64(0); i < n; i++ {
		if st, err := sess.RMW(key(i), u64(i+1), nil); err != nil || st != OK {
			t.Fatalf("RMW(%d) = (%v, %v)", i, st, err)
		}
	}
	if s.Log().HeadAddress() == 0 {
		t.Fatal("log never evicted; test is not exercising the spill path")
	}
	var pendingReads int
	for i := uint64(0); i < n; i++ {
		out := make([]byte, 8)
		st, err := sess.Read(key(i), nil, out, i)
		if err != nil {
			t.Fatal(err)
		}
		switch st {
		case OK:
			if got := binary.LittleEndian.Uint64(out); got != i+1 {
				t.Fatalf("Read(%d) = %d, want %d", i, got, i+1)
			}
		case Pending:
			pendingReads++
			results := sess.CompletePending(true)
			for _, r := range results {
				if r.Status != OK {
					t.Fatalf("pending read of key %x: %v (err %v)", r.Key, r.Status, r.Err)
				}
				wantKey := r.Ctx.(uint64)
				if got := binary.LittleEndian.Uint64(r.Output); got != wantKey+1 {
					t.Fatalf("pending Read(%d) = %d, want %d", wantKey, got, wantKey+1)
				}
			}
		default:
			t.Fatalf("Read(%d) = %v", i, st)
		}
	}
	if pendingReads == 0 {
		t.Fatal("no reads went to storage; spill path untested")
	}
	if dev.Stats().Reads == 0 {
		t.Fatal("device saw no reads")
	}
}

func TestRMWAgainstEvictedRecordCopyUpdates(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	// Insert key 0 first, then push it to disk with other traffic.
	sess.RMW(key(0), u64(100), nil)
	for i := uint64(1); i < 1500; i++ {
		sess.RMW(key(i), u64(1), nil)
	}
	// Now RMW key 0 again: its record should be on storage.
	st, err := sess.RMW(key(0), u64(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == Pending {
		results := sess.CompletePending(true)
		for _, r := range results {
			if r.Status != OK {
				t.Fatalf("pending RMW: %v (%v)", r.Status, r.Err)
			}
		}
	}
	got, rst := readU64(t, sess, key(0))
	if rst != OK || got != 111 {
		t.Fatalf("counter = (%d, %v), want (111, OK)", got, rst)
	}
}

func TestConcurrentRMWSumsExactly(t *testing.T) {
	// The headline correctness property of in-place updates: concurrent
	// fetch-and-add RMWs on shared keys lose no updates.
	s, _ := openTestStore(t, Config{BufferPages: 32, IndexBuckets: 128})
	const (
		workers = 8
		perW    = 2000
		keys    = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.StartSession()
			defer sess.Close()
			for i := 0; i < perW; i++ {
				k := key(uint64(i % keys))
				st, err := sess.RMW(k, u64(1), nil)
				if err != nil {
					t.Errorf("RMW: %v", err)
					return
				}
				if st == Pending {
					sess.CompletePending(true)
				}
			}
		}(w)
	}
	wg.Wait()

	sess := s.StartSession()
	defer sess.Close()
	var total uint64
	for i := uint64(0); i < keys; i++ {
		got, st := readU64(t, sess, key(i))
		if st != OK {
			t.Fatalf("Read(%d) = %v", i, st)
		}
		total += got
	}
	if want := uint64(workers * perW); total != want {
		t.Fatalf("sum of counters = %d, want %d (lost updates!)", total, want)
	}
}

func TestConcurrentUpsertReadNoTornValues(t *testing.T) {
	// Writers alternate two 64-byte patterns; readers must always see
	// word-consistent data (each 8-byte word from one of the patterns).
	s, _ := openTestStore(t, Config{Ops: BlobOps{}, BufferPages: 16})
	patA := make([]byte, 64)
	patB := make([]byte, 64)
	for i := range patA {
		patA[i] = 0xAA
		patB[i] = 0xBB
	}
	k := key(9)
	{
		sess := s.StartSession()
		sess.Upsert(k, patA)
		sess.Close()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.StartSession()
			defer sess.Close()
			pat := patA
			if w == 1 {
				pat = patB
			}
			for i := 0; i < 3000; i++ {
				sess.Upsert(k, pat)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		sess := s.StartSession()
		defer sess.Close()
		out := make([]byte, 64)
		for i := 0; i < 3000; i++ {
			st, err := sess.Read(k, nil, out, nil)
			if err != nil || st != OK {
				t.Errorf("Read = (%v, %v)", st, err)
				return
			}
			for off := 0; off < 64; off += 8 {
				w := binary.LittleEndian.Uint64(out[off:])
				if w != 0xAAAAAAAAAAAAAAAA && w != 0xBBBBBBBBBBBBBBBB {
					t.Errorf("torn word %#x at offset %d", w, off)
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestAppendOnlyMode(t *testing.T) {
	s, _ := openTestStore(t, Config{Mode: hlog.ModeAppendOnly, BufferPages: 16})
	sess := s.StartSession()
	defer sess.Close()
	for i := 0; i < 100; i++ {
		st, err := sess.RMW(key(1), u64(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == Pending {
			sess.CompletePending(true)
		}
	}
	got, st := readU64(t, sess, key(1))
	if st != OK || got != 100 {
		t.Fatalf("counter = (%d, %v), want (100, OK)", got, st)
	}
	// Append-only means no (or almost no) in-place updates.
	if ip := s.Stats().InPlace; ip > 0 {
		t.Fatalf("append-only store performed %d in-place updates", ip)
	}
	if s.Stats().Appends < 50 {
		t.Fatalf("append-only store performed too few appends: %+v", s.Stats())
	}
}

func TestInMemoryMode(t *testing.T) {
	dev := device.NewNull()
	s, err := Open(Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		MutableFraction: 1, IndexBuckets: 256, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.Close()
	for i := uint64(0); i < 5000; i++ {
		if st, err := sess.RMW(key(i%100), u64(1), nil); err != nil || st != OK {
			t.Fatalf("RMW = (%v, %v)", st, err)
		}
	}
	got, st := readU64(t, sess, key(0))
	if st != OK || got != 50 {
		t.Fatalf("counter = (%d, %v), want (50, OK)", got, st)
	}
	// Everything mutable: updates after the first insert are in place.
	stats := s.Stats()
	if stats.InPlace < 4000 {
		t.Fatalf("in-memory mode in-place count = %d, want ~4900", stats.InPlace)
	}
}

func TestVariableLengthKeysAndValues(t *testing.T) {
	s, _ := openTestStore(t, Config{Ops: BlobOps{}, BufferPages: 16})
	sess := s.StartSession()
	defer sess.Close()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%d-%s", i, string(make([]byte, i%40))))
		v := []byte(fmt.Sprintf("value-%d-%s", i, string(make([]byte, (i*7)%100))))
		if st, err := sess.Upsert(k, v); err != nil || st != OK {
			t.Fatalf("Upsert var = (%v, %v)", st, err)
		}
		out := make([]byte, len(v))
		st, err := sess.Read(k, nil, out, nil)
		if err != nil || st != OK {
			t.Fatalf("Read var = (%v, %v)", st, err)
		}
		if string(out) != string(v) {
			t.Fatalf("value mismatch for %q", k)
		}
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	if _, err := sess.Upsert(nil, u64(1)); err == nil {
		t.Fatal("empty key upsert should fail")
	}
	if _, err := sess.Read([]byte{}, nil, make([]byte, 8), nil); err == nil {
		t.Fatal("empty key read should fail")
	}
}

func TestSessionClosedRejectsOps(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	sess.Close()
	if _, err := sess.Upsert(key(1), u64(1)); err != ErrSessionClosed {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
}

func TestStatsProgression(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	for i := 0; i < 100; i++ {
		sess.RMW(key(uint64(i)), u64(1), nil)
	}
	st := s.Stats()
	if st.Operations != 100 {
		t.Fatalf("Operations = %d, want 100", st.Operations)
	}
	if st.Appends == 0 {
		t.Fatal("no appends counted")
	}
	// Compaction is not a user operation: its index checks and copies
	// leave the count alone.
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	sess.Park()
	cs, err := s.Compact(s.Log().SafeReadOnlyAddress())
	sess.Unpark()
	if err != nil || cs.Copied != 100 {
		t.Fatalf("compact: %+v %v, want 100 copies", cs, err)
	}
	if got := s.Stats().Operations; got != 100 {
		t.Fatalf("Operations after Compact = %d, want 100", got)
	}
}

func TestPendingResultCarriesContext(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	// Spill key 0 to storage.
	sess.RMW(key(0), u64(7), nil)
	for i := uint64(1); i < 1500; i++ {
		sess.RMW(key(i), u64(1), nil)
	}
	sess.CompletePending(true)

	type myCtx struct{ tag string }
	out := make([]byte, 8)
	st, err := sess.Read(key(0), nil, out, &myCtx{tag: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if st != Pending {
		t.Skip("record still resident")
	}
	results := sess.CompletePending(true)
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.Kind != "read" || r.Status != OK {
		t.Fatalf("result = %+v", r)
	}
	if c, ok := r.Ctx.(*myCtx); !ok || c.tag != "hello" {
		t.Fatalf("context not preserved: %+v", r.Ctx)
	}
	if got := binary.LittleEndian.Uint64(r.Output); got != 7 {
		t.Fatalf("output = %d, want 7", got)
	}
}

// driverSession is what the completion-driver tests need of a session;
// Session and ShardedSession both provide it.
type driverSession interface {
	Read(key, input, output []byte, ctx any) (Status, error)
	RMW(key, input []byte, ctx any) (Status, error)
	CompletePending(wait bool) []Result
	Close() error
}

// openDriverSession opens a store of max(shards, 1) shards over the
// devices dev returns, writes key(i) = i+1 for i < 3000 so every shard
// spills, and returns a flat session on shard 0 (shards == 0) or a
// ShardedSession.
func openDriverSession(t *testing.T, shards int, dev func() device.Device) (*ShardedStore, driverSession) {
	t.Helper()
	n := max(shards, 1)
	devs := make([]device.Device, n)
	for i := range devs {
		devs[i] = dev()
	}
	ss, err := OpenSharded(ShardedConfig{Shards: n, NewDevice: func(i int) device.Device { return devs[i] },
		Base: Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8, IndexBuckets: 1 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	var sess driverSession
	if shards == 0 {
		sess = ss.Shard(0).StartSession()
	} else {
		sess = ss.StartSession()
	}
	t.Cleanup(func() {
		sess.Close()
		ss.Close()
		for _, d := range devs {
			d.Close()
		}
	})
	for i := uint64(0); i < 3000; i++ {
		if st, err := sess.RMW(key(i), u64(i+1), nil); err != nil {
			t.Fatal(err)
		} else if st == Pending {
			sess.CompletePending(true)
		}
	}
	sess.CompletePending(true)
	for i := 0; i < n; i++ {
		if ss.Shard(i).Log().HeadAddress() == 0 {
			t.Fatalf("shard %d did not spill", i)
		}
	}
	return ss, sess
}

func driverName(shards int) string {
	if shards == 0 {
		return "flat"
	}
	return fmt.Sprintf("shards=%d", shards)
}

// checkColdRead requires results to be exactly one OK read of key(0),
// whose value is 1.
func checkColdRead(t *testing.T, results []Result) {
	t.Helper()
	if len(results) != 1 {
		t.Fatalf("%d results for one pending read, want 1: %+v", len(results), results)
	}
	if r := results[0]; r.Kind != "read" || r.Status != OK || r.Err != nil || leU64(r.Output) != 1 {
		t.Fatalf("result = %+v, want an OK read of value 1", r)
	}
}

// TestCompletePendingNonBlocking issues one cold read, then drains with a
// non-blocking and a blocking CompletePending: between them the two
// calls must return exactly one result, the read's value.
func TestCompletePendingNonBlocking(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(driverName(shards), func(t *testing.T) {
			_, sess := openDriverSession(t, shards, func() device.Device { return device.NewMem(device.MemConfig{}) })
			st, err := sess.Read(key(0), nil, make([]byte, 8), nil)
			if st != Pending {
				t.Fatalf("cold read = %v %v, want Pending", st, err)
			}
			results := sess.CompletePending(false)
			results = append(results, sess.CompletePending(true)...)
			checkColdRead(t, results)
			if flat, ok := sess.(*Session); ok {
				// Close released the guard; there is nothing left to drive.
				flat.Close()
				if results := flat.CompletePending(true); len(results) != 0 {
					t.Fatalf("CompletePending after Close = %+v, want none", results)
				}
			}
		})
	}
}

// TestCompletePendingPinsNoEpoch blocks a goroutine in
// CompletePending(true) on a cold read that takes 50 ms and bumps the
// epoch of the read's shard while it sleeps. The waiting session is
// parked, so the bump's action must run at once, not when the wait ends.
// On return a flat session is protected again and every sharded sub is
// parked.
func TestCompletePendingPinsNoEpoch(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(driverName(shards), func(t *testing.T) {
			var faulties []*device.Faulty
			ss, sess := openDriverSession(t, shards, func() device.Device {
				f := device.NewFaulty(device.NewMem(device.MemConfig{}))
				faulties = append(faulties, f)
				return f
			})
			for _, f := range faulties {
				f.InjectLatency(50*time.Millisecond, 0)
			}
			s := ss.Shard(0)
			if shards > 0 {
				s = ss.Shard(ss.ShardFor(key(0)))
			}

			done := make(chan []Result, 1)
			go func() {
				st, err := sess.Read(key(0), nil, make([]byte, 8), nil)
				if st != Pending {
					t.Errorf("cold read = %v %v, want Pending", st, err)
				}
				done <- sess.CompletePending(true)
			}()
			// Bump only once the reader sleeps on its waker: a pass
			// refreshes its members, so an earlier bump proves nothing.
			testutil.WaitUntil(t, 5*time.Second, func() bool {
				buf := make([]byte, 1<<20)
				for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
					if strings.Contains(g, "(*waker).wait") && strings.Contains(g, "TestCompletePendingPinsNoEpoch") {
						return true
					}
				}
				return false
			}, "the reader to sleep in CompletePending")
			// Every other guard of the shard is parked too, so the bump's
			// own drain runs the action unless the sleeper pins the epoch.
			var ran atomic.Bool
			s.Epoch().BumpWith(func() { ran.Store(true) })
			inline := ran.Load()
			results := <-done
			if !inline {
				t.Fatal("the bump's action did not run while the reader slept: its session pinned the epoch")
			}
			checkColdRead(t, results)

			switch sess := sess.(type) {
			case *Session:
				if e := sess.g.Epoch(); e == epoch.Unprotected || e == math.MaxUint64 {
					t.Fatalf("flat session publishes epoch %#x after CompletePending, want protected", e)
				}
			case *ShardedSession:
				for i, sub := range sess.group.members {
					if e := sub.g.Epoch(); e != math.MaxUint64 {
						t.Fatalf("sub %d publishes epoch %#x after CompletePending, want parked", i, e)
					}
				}
			}
		})
	}
}

func TestRefreshIntervalHonored(t *testing.T) {
	s, _ := openTestStore(t, Config{RefreshInterval: 16, BufferPages: 64})
	sess := s.StartSession()
	defer sess.Close()
	e0 := s.Epoch().Metrics().CurrentEpoch
	// Drive enough page rolls to bump the epoch several times; the
	// session's automatic refreshes must keep the safe epoch moving.
	for i := uint64(0); i < 3000; i++ {
		sess.RMW(key(i), u64(1), nil)
	}
	if s.Epoch().Metrics().CurrentEpoch == e0 {
		t.Skip("no epoch bumps; nothing to verify")
	}
	if s.Epoch().Safe() == 0 {
		t.Fatal("safe epoch never advanced despite periodic refreshes")
	}
}
