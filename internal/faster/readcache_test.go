package faster

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/hlog"
	"repro/internal/ycsb"
)

// openCacheStore builds a small-buffer hybrid store with a read cache of
// cacheBytes and spills n keys to the device (key i holds u64(i+1)).
func openCacheStore(t *testing.T, cacheBytes uint64, n uint64) (*Store, *Session) {
	t.Helper()
	mem := device.NewMem(device.MemConfig{})
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: mem,
		ReadCacheBytes: cacheBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		mem.Close()
	})
	sess := s.StartSession()
	t.Cleanup(func() { sess.Close() })
	spill(t, s, sess, n)
	return s, sess
}

// rcRead reads key k, draining the pending completion on a cold miss.
func rcRead(t *testing.T, sess *Session, k uint64) (uint64, Status) {
	t.Helper()
	out := make([]byte, 8)
	st, err := sess.Read(key(k), nil, out, nil)
	if err != nil {
		t.Fatalf("read of key %d: %v", k, err)
	}
	if st == Pending {
		results := sess.CompletePending(true)
		if len(results) != 1 {
			t.Fatalf("read of key %d: drained %d results, want 1", k, len(results))
		}
		if results[0].Err != nil {
			t.Fatalf("read of key %d: %v", k, results[0].Err)
		}
		st = results[0].Status
		if results[0].Output != nil {
			copy(out, results[0].Output)
		}
	}
	return binary.LittleEndian.Uint64(out), st
}

// TestReadCacheFillAndHit: a cold read fills the cache, and the next read
// of the same key is served from memory without going pending.
func TestReadCacheFillAndHit(t *testing.T) {
	s, sess := openCacheStore(t, 64<<10, 1500)
	// Key 0 was written first, so it is far below the head address.
	if v, st := rcRead(t, sess, 0); st != OK || v != 1 {
		t.Fatalf("cold read = (%d, %v), want (1, OK)", v, st)
	}
	m := s.Metrics().ReadCache
	if m.Misses == 0 || m.Fills == 0 {
		t.Fatalf("cold read did not fill the cache: %+v", m)
	}
	// The second read must be a cache hit: OK synchronously, not Pending.
	out := make([]byte, 8)
	st, err := sess.Read(key(0), nil, out, nil)
	if err != nil || st != OK {
		t.Fatalf("cached read = %v %v, want synchronous OK", st, err)
	}
	if got := binary.LittleEndian.Uint64(out); got != 1 {
		t.Fatalf("cached read = %d, want 1", got)
	}
	if m2 := s.Metrics().ReadCache; m2.Hits == 0 {
		t.Fatalf("cached read did not count a hit: %+v", m2)
	}
}

// TestReadCacheInvalidation: upserts, RMWs and deletes of a cached key
// must republish the index entry off the cached copy — readers see the
// new value immediately, never the stale cached one.
func TestReadCacheInvalidation(t *testing.T) {
	s, sess := openCacheStore(t, 64<<10, 1500)

	warm := func(k, want uint64) {
		t.Helper()
		if v, st := rcRead(t, sess, k); st != OK || v != want {
			t.Fatalf("warming read of key %d = (%d, %v), want (%d, OK)", k, v, st, want)
		}
		if v, st := rcRead(t, sess, k); st != OK || v != want {
			t.Fatalf("cached read of key %d = (%d, %v), want (%d, OK)", k, v, st, want)
		}
	}

	// Upsert over a cached key.
	warm(1, 2)
	if st, err := sess.Upsert(key(1), u64(999)); st != OK || err != nil {
		t.Fatalf("upsert over cached key = %v %v", st, err)
	}
	if v, st := rcRead(t, sess, 1); st != OK || v != 999 {
		t.Fatalf("read after upsert = (%d, %v), want (999, OK)", v, st)
	}

	// RMW over a cached key (device-read-free fast path: the cached copy
	// is by construction the newest version).
	warm(2, 3)
	if st, err := sess.RMW(key(2), u64(10), nil); err != nil {
		t.Fatalf("rmw over cached key: %v", err)
	} else if st == Pending {
		sess.CompletePending(true)
	}
	if v, st := rcRead(t, sess, 2); st != OK || v != 13 {
		t.Fatalf("read after rmw = (%d, %v), want (13, OK)", v, st)
	}

	// Delete of a cached key.
	warm(3, 4)
	if st, err := sess.Delete(key(3)); st != OK || err != nil {
		t.Fatalf("delete of cached key = %v %v", st, err)
	}
	if _, st := rcRead(t, sess, 3); st != NotFound {
		t.Fatalf("read after delete = %v, want NotFound", st)
	}

	if m := s.Metrics().ReadCache; m.Invalidations == 0 {
		t.Fatalf("writers over cached keys counted no invalidations: %+v", m)
	}
}

// TestReadCacheEviction: a cache much smaller than the cold working set
// must evict (restoring the underlying addresses) while every read keeps
// returning the correct value, and the live-bytes gauge stays bounded.
func TestReadCacheEviction(t *testing.T) {
	s, sess := openCacheStore(t, 2<<10, 1500)
	for k := uint64(0); k < 200; k++ {
		if v, st := rcRead(t, sess, k); st != OK || v != k+1 {
			t.Fatalf("read of key %d = (%d, %v), want (%d, OK)", k, v, st, k+1)
		}
	}
	m := s.Metrics().ReadCache
	if m.Evictions == 0 {
		t.Fatalf("200 fills through a 2KB cache never evicted: %+v", m)
	}
	if m.Bytes < 0 || m.Bytes > 2<<10 {
		t.Fatalf("live cached bytes %d outside budget [0, 2048]", m.Bytes)
	}
	// Evicted keys must still read correctly (back through the device).
	for k := uint64(0); k < 200; k += 17 {
		if v, st := rcRead(t, sess, k); st != OK || v != k+1 {
			t.Fatalf("re-read of key %d = (%d, %v), want (%d, OK)", k, v, st, k+1)
		}
	}
}

// TestReadCacheSimCLOCKPrediction validates internal/cachesim against the
// real read cache: a scrambled zipf(0.99) trace replayed through the real
// store must land within tolerance of the simulator's CLOCK miss-ratio
// prediction at the same record capacity (EXPERIMENTS.md records the
// measured pairs).
func TestReadCacheSimCLOCKPrediction(t *testing.T) {
	const (
		keys     = 8192
		accesses = 60000
		recBytes = 32 // recordSize(8, 8)
	)
	for _, frac := range []uint64{8, 16} {
		frac := frac
		t.Run(fmt.Sprintf("resident=1_%d", frac), func(t *testing.T) {
			cacheBytes := uint64(keys / frac * recBytes)

			// One shared trace: the comparison is only meaningful when the
			// simulator and the store replay identical access sequences.
			g := ycsb.NewZipfian(keys, ycsb.DefaultTheta, 42)
			trace := make([]uint64, accesses)
			for i := range trace {
				trace[i] = g.Next()
			}

			c := cachesim.NewCLOCK(int(cacheBytes / recBytes))
			simMisses := 0
			for _, k := range trace {
				if !c.Access(k) {
					simMisses++
				}
			}
			simRatio := float64(simMisses) / float64(accesses)

			mem := device.NewMem(device.MemConfig{})
			s, err := Open(Config{
				Ops: SumOps{}, PageBits: 12, BufferPages: 4,
				IndexBuckets: 1 << 13, Device: mem,
				ReadCacheBytes: cacheBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				s.Close()
				mem.Close()
			}()
			sess := s.StartSession()
			defer sess.Close()
			for i := uint64(0); i < keys; i++ {
				if st, err := sess.Upsert(key(i), u64(i+1)); st != OK || err != nil {
					t.Fatalf("load key %d: %v %v", i, st, err)
				}
			}
			for _, k := range trace {
				if v, st := rcRead(t, sess, k); st != OK || v != k+1 {
					t.Fatalf("trace read of key %d = (%d, %v)", k, v, st)
				}
			}
			m := s.Metrics().ReadCache
			if m.Hits+m.Misses == 0 {
				t.Fatal("trace never reached the read cache (no cold reads)")
			}
			realRatio := float64(m.Misses) / float64(m.Hits+m.Misses)
			diff := realRatio - simRatio
			if diff < 0 {
				diff = -diff
			}
			t.Logf("resident 1/%d: sim CLOCK miss ratio %.4f, real %.4f (hits=%d misses=%d fills=%d evictions=%d)",
				frac, simRatio, realRatio, m.Hits, m.Misses, m.Fills, m.Evictions)
			if diff > 0.08 {
				t.Errorf("real miss ratio %.4f deviates from CLOCK prediction %.4f by %.4f (> 0.08)",
					realRatio, simRatio, diff)
			}
		})
	}
}

// TestReadCacheFillCASAfterRestore holds a fill between its record write
// and its index CAS, with its guard parked, while other fills turn the
// cache log past the held record's page and the restore walk passes it.
// The late CAS then publishes a tagged address whose frame may already be
// reopened: the filler must see its page below the cache head and move
// the entry back, so no entry is left tagged below the head and the key
// still reads its value.
func TestReadCacheFillCASAfterRestore(t *testing.T) {
	s, sess := openCacheStore(t, 2<<10, 1500)
	var armed atomic.Bool
	held, release := make(chan hlog.Address), make(chan struct{})
	debugFillCAS = func(g *epoch.Guard) {
		if armed.CompareAndSwap(true, false) {
			g.Park()
			held <- s.rc.log.TailAddress()
			<-release
			g.Unpark()
		}
	}
	t.Cleanup(func() { debugFillCAS = nil })
	armed.Store(true)

	filler := s.StartSession()
	done := make(chan []Result)
	go func() {
		defer filler.Close()
		if st, err := filler.Read(key(0), nil, make([]byte, 8), nil); st != Pending || err != nil {
			done <- []Result{{Status: st, Err: err}}
			return
		}
		done <- filler.CompletePending(true)
	}()
	tail := <-held
	for k := uint64(1); s.rc.evicted.Load() <= tail; k++ {
		if k == 1500 {
			t.Fatal("1500 fills never evicted the held fill's page")
		}
		if v, st := rcRead(t, sess, k); st != OK || v != k+1 {
			t.Fatalf("read of key %d = (%d, %v), want (%d, OK)", k, v, st, k+1)
		}
	}
	close(release)
	if res := <-done; len(res) != 1 || res[0].Status != OK || binary.LittleEndian.Uint64(res[0].Output) != 1 {
		t.Fatalf("held cold read of key 0 = %+v, want one OK of 1", res)
	}

	head := s.rc.log.HeadAddress()
	s.idx.ForEachEntry(func(a uint64) {
		if isCacheAddr(a) && a&^cacheAddrBit < head {
			t.Errorf("entry tagged %#x below the cache head %#x", a&^cacheAddrBit, head)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if v, st := rcRead(t, sess, 0); st != OK || v != 1 {
		t.Fatalf("read of key 0 after the late fill = (%d, %v), want (1, OK)", v, st)
	}
}
