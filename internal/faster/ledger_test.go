package faster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/ycsb"
)

// BenchmarkEmbeddedLedger is the in-store cost ledger of the paper's
// headline loop (§7.2, Figs 8-9): one session, one in-memory store of
// ledgerKeys 8-byte keys and values under SumOps, Zipf 0.99 keys from the
// scrambled generator. Each row adds one layer to the one before it, so
// the differences price the layers:
//
//	hash            xhash of the key
//	probe           hash + index probe (FindEntry)
//	probe+headword  probe + an atomic load of the chain head's header word
//	Read / RMW      the whole Session call
//	mix50           50 % Read / 50 % RMW, the embedded YCSB mix
//
// Run it single-threaded: go test -run '^$' -bench EmbeddedLedger ./internal/faster/
func BenchmarkEmbeddedLedger(b *testing.B) {
	const (
		ledgerKeys = 1 << 20
		ledgerOps  = 1 << 22
	)
	dev := device.NewMem(device.MemConfig{})
	s, err := Open(Config{
		Ops: SumOps{}, IndexBuckets: ledgerKeys / 2, PageBits: 22, BufferPages: 16,
		MutableFraction: 1, Device: dev,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	defer s.Close()
	sess := s.StartSession()
	defer sess.Close()

	var key, val [8]byte
	for k := uint64(0); k < ledgerKeys; k++ {
		binary.LittleEndian.PutUint64(key[:], k)
		if st, err := sess.Upsert(key[:], val[:]); st != OK {
			b.Fatalf("load key %d: %v %v", k, st, err)
		}
	}
	// seq holds key<<1 | isRMW, drawn before any clock starts.
	zipf := ycsb.NewZipfian(ledgerKeys, ycsb.DefaultTheta, 1)
	seq := make([]uint64, ledgerOps)
	for i := range seq {
		seq[i] = zipf.Next()<<1 | uint64(i)*0x9E3779B97F4A7C15>>63
	}
	binary.LittleEndian.PutUint64(val[:], 1)

	row := func(name string, op func(b *testing.B, i int)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(b, i&(ledgerOps-1))
			}
		})
	}
	row("hash", func(_ *testing.B, i int) {
		binary.LittleEndian.PutUint64(key[:], seq[i]>>1)
		ledgerSink ^= hashKey(key[:])
	})
	row("probe", func(_ *testing.B, i int) {
		binary.LittleEndian.PutUint64(key[:], seq[i]>>1)
		_, addr, _ := s.idx.FindEntry(hashKey(key[:]))
		ledgerSink ^= addr
	})
	row("probe+headword", func(_ *testing.B, i int) {
		binary.LittleEndian.PutUint64(key[:], seq[i]>>1)
		_, addr, _ := s.idx.FindEntry(hashKey(key[:]))
		ledgerSink ^= atomic.LoadUint64(s.headerPtr(addr))
	})
	var out [8]byte
	read := func(b *testing.B, i int) {
		binary.LittleEndian.PutUint64(key[:], seq[i]>>1)
		if st, err := sess.Read(key[:], nil, out[:], nil); st != OK {
			b.Fatalf("read: %v %v", st, err)
		}
	}
	rmw := func(b *testing.B, i int) {
		binary.LittleEndian.PutUint64(key[:], seq[i]>>1)
		if st, err := sess.RMW(key[:], val[:], nil); st != OK {
			b.Fatalf("rmw: %v %v", st, err)
		}
	}
	row("Read", read)
	row("RMW", rmw)
	row("mix50", func(b *testing.B, i int) {
		if seq[i]&1 == 1 {
			rmw(b, i)
		} else {
			read(b, i)
		}
	})
}

// ledgerSink keeps the ledger's loads and hashes from being optimised away.
var ledgerSink uint64
