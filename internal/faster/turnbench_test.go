package faster

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/ycsb"
)

// respKey and respValue build benchmark record k: a 16-byte key and a
// framed 100-byte value, kvbench's RESP record shape.
func respKey(key []byte, k uint64) {
	binary.BigEndian.PutUint64(key[:8], 'k')
	binary.BigEndian.PutUint64(key[8:], k)
}

func respValue(frame []byte, k uint64) []byte {
	var val [100]byte
	binary.LittleEndian.PutUint64(val[:], k)
	return VarLenAppend(frame[:0], val[:])
}

// BenchmarkIngest prices a page turn on the ingest path: one session
// upserts ingestKeys fresh keys into an empty store whose buffer of 512
// KiB pages (8 or 16, MutableFraction 0.9) spills to device.Mem — one
// shard of kvbench's cold_read_zipf preload. An iteration is one whole
// load into a new store. It reports ns per upsert and the µs a page turn
// waited for its frame (hlog FrameWait over page turns).
//
//	go test -run '^$' -bench Ingest -count 3 ./internal/faster/
func BenchmarkIngest(b *testing.B) {
	const (
		ingestKeys = 250_000
		pageBits   = 19
	)
	for _, pages := range []int{8, 16} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			var key [16]byte
			frame := make([]byte, 0, 8+100)
			var waitNs, turns uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := device.NewMem(device.MemConfig{})
				s, err := Open(Config{Ops: VarLenOps{}, IndexBuckets: ingestKeys / 2,
					PageBits: pageBits, BufferPages: pages, MutableFraction: 0.9, Device: dev})
				if err != nil {
					b.Fatal(err)
				}
				sess := s.StartSession()
				b.StartTimer()
				for k := uint64(0); k < ingestKeys; k++ {
					respKey(key[:], k)
					frame = respValue(frame, k)
					if st, err := sess.Upsert(key[:], frame); st != OK {
						b.Fatalf("upsert %d: %v %v", k, st, err)
					}
				}
				b.StopTimer()
				waitNs += s.Log().Metrics().FrameWait.SumNs
				turns += s.Log().TailAddress() >> pageBits
				sess.Close()
				s.Close()
				dev.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ingestKeys), "ns/upsert")
			b.ReportMetric(float64(waitNs)/float64(max(turns, 1))/1e3, "framewait-µs/turn")
			b.ReportMetric(float64(turns)/float64(b.N), "turns/load")
		})
	}
}

// BenchmarkReadCacheTurnover prices the read cache's eviction path, which
// no kvbench workload reaches: Zipf 0.99 GETs, resident-only on one
// session with every miss handed to the io-pool as the RESP server does,
// over a store whose cold set is more than 4× its 1 MiB read cache. The
// cache fills from each miss, so it turns pages all the time. It reports
// ns/op, cache evictions per GET, and the µs a cache page turn waited for
// its frame: the filling thread's drain and OnEvict restore walk.
//
//	go test -run '^$' -bench ReadCacheTurnover ./internal/faster/
func BenchmarkReadCacheTurnover(b *testing.B) {
	const (
		keys     = 100_000 // 14 MiB of records
		cache    = 1 << 20
		ops      = 1 << 20 // pre-drawn key ring
		inflight = 32      // misses in flight at once
	)
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	s, err := Open(Config{Ops: VarLenOps{}, IndexBuckets: keys / 2, PageBits: 16,
		BufferPages: 16, MutableFraction: 0.9, ReadCacheBytes: cache, Device: dev})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.Close()
	var key [16]byte
	frame := make([]byte, 0, 8+100)
	for k := uint64(0); k < keys; k++ {
		respKey(key[:], k)
		frame = respValue(frame, k)
		if st, err := sess.Upsert(key[:], frame); st != OK {
			b.Fatalf("load %d: %v %v", k, st, err)
		}
	}
	if cold := s.Log().HeadAddress(); cold < 4*cache {
		b.Fatalf("cold set %d B is under 4× the %d B cache", cold, cache)
	}
	zipf := ycsb.NewZipfian(keys, ycsb.DefaultTheta, 1)
	seq := make([]uint64, ops)
	for i := range seq {
		seq[i] = zipf.Next()
	}

	sess.SetResidentOnly(true)
	sem := make(chan struct{}, inflight)
	done := func(r Result) {
		if r.Status != OK {
			b.Errorf("GET from the io-pool: %v %v", r.Status, r.Err)
		}
		<-sem
	}
	out := make([]byte, 8+100)
	get := func(i int) {
		respKey(key[:], seq[i&(ops-1)])
		st, err := sess.Read(key[:], nil, out, nil)
		switch st {
		case OK:
		case WouldBlock:
			select {
			case sem <- struct{}{}:
			default:
				// A fill in flight may be turning a cache page, which
				// waits for every guard to refresh: block parked.
				sess.Park()
				sem <- struct{}{}
				sess.Unpark()
			}
			if err := s.SubmitRead(key[:], nil, time.Time{}, nil, done); err != nil {
				b.Fatal(err)
			}
		default:
			b.Fatalf("GET: %v %v", st, err)
		}
	}
	drain := func() {
		sess.Park()
		for range inflight {
			sem <- struct{}{}
		}
		for range inflight {
			<-sem
		}
		sess.Unpark()
	}
	for i := range 4 * cache / 144 { // warm: the cache full, its hot keys in
		get(i)
	}
	drain()

	rc := s.rc.log
	evBefore := s.rc.mx.evictions.Load()
	waitBefore, turnsBefore := rc.Metrics().FrameWait.SumNs, rc.TailAddress()/rc.PageSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(i)
	}
	drain()
	b.StopTimer()
	b.ReportMetric(float64(s.rc.mx.evictions.Load()-evBefore)/float64(b.N), "evictions/op")
	turns := rc.TailAddress()/rc.PageSize() - turnsBefore
	b.ReportMetric(float64(rc.Metrics().FrameWait.SumNs-waitBefore)/float64(max(turns, 1))/1e3, "framewait-µs/turn")
}
