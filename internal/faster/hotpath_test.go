package faster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/hlog"
)

// Hot-path allocation and scaling coverage: the uint64 fast path must
// stay at 0 allocs/op (TestHotPathZeroAlloc is the regression gate run
// by scripts/check.sh), and the benchmarks measure single-op vs batched
// throughput across -cpu 1,4,16.

const hotKeys = 1 << 10

func openHotStore(tb testing.TB) *Store {
	tb.Helper()
	s, err := Open(Config{
		PageBits:        20,
		BufferPages:     8,
		MutableFraction: 1,
		Device:          device.NewNull(),
		IndexBuckets:    1 << 12,
		Ops:             SumOps{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	preload := s.StartSession()
	key := make([]byte, 8)
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	for k := uint64(1); k <= hotKeys; k++ {
		binary.LittleEndian.PutUint64(key, k)
		if st, err := preload.Upsert(key, one); st != OK {
			tb.Fatalf("preload upsert: %v %v", st, err)
		}
	}
	preload.Close()
	return s
}

// TestHotPathZeroAlloc is the allocation-regression gate: steady-state
// Read, in-place Upsert, in-place RMW and their batched forms on the
// uint64 fast path must not touch the heap.
func TestHotPathZeroAlloc(t *testing.T) {
	s := openHotStore(t)
	sess := s.StartSession()
	defer sess.Close()

	key := make([]byte, 8)
	binary.LittleEndian.PutUint64(key, 7)
	out := make([]byte, 8)
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 42)

	// Warm every path once so one-time work (first append, scratch
	// growth) happens outside the measurement.
	if st, err := sess.Upsert(key, val); st != OK {
		t.Fatalf("warm upsert: %v %v", st, err)
	}
	if st, err := sess.RMW(key, val, nil); st != OK {
		t.Fatalf("warm rmw: %v %v", st, err)
	}
	if st, err := sess.Read(key, nil, out, nil); st != OK {
		t.Fatalf("warm read: %v %v", st, err)
	}

	check := func(name string, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, got)
		}
	}
	check("Read", func() { sess.Read(key, nil, out, nil) })
	check("Upsert", func() { sess.Upsert(key, val) })
	check("RMW", func() { sess.RMW(key, val, nil) })

	// Serial-stamped ops ride the same fast path: the full exactly-once
	// bracket through the token (window, admission check, op, commit with
	// reply capture) must not touch the heap either once the reply buffer
	// has reached capacity.
	tok, _, _, err := (&ShardedStore{shards: []*Store{s}}).BindSession("hot-path")
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	var serial uint64
	stamped := func(f func()) func() {
		return func() {
			serial++
			tok.WindowEnter(0)
			if v, _ := tok.Check(0, serial); v != SerialApply {
				t.Fatalf("serial %d: %v", serial, v)
			}
			f()
			tok.Commit(0, serial, out)
			tok.WindowExit()
		}
	}
	warmStamped := stamped(func() { sess.Upsert(key, val) })
	warmStamped()
	check("SerialUpsert", stamped(func() { sess.Upsert(key, val) }))
	check("SerialRMW", stamped(func() { sess.RMW(key, val, nil) }))

	// Batched forms reuse the session's batch scratch after one warmup.
	ops := make([]BatchOp, 16)
	fill := func() {
		for i := range ops {
			kind := BatchRead
			if i%2 == 1 {
				kind = BatchUpsert
			}
			ops[i] = BatchOp{Kind: kind, Key: key, Value: val, Output: out}
		}
	}
	fill()
	if err := sess.ExecBatch(ops); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	check("ExecBatch", func() {
		fill()
		if err := sess.ExecBatch(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExecBatchMixed drives every batch kind, duplicate keys, and the
// shared-reservation append path through one batch and checks the
// results against single-op semantics.
func TestExecBatchMixed(t *testing.T) {
	s := openHotStore(t)
	sess := s.StartSession()
	defer sess.Close()

	k := func(n uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	v := func(n uint64) []byte { return k(n) }

	out1 := make([]byte, 8)
	out2 := make([]byte, 8)
	ops := []BatchOp{
		// A fresh-key upsert run, including a duplicate (last write wins).
		{Kind: BatchUpsert, Key: k(5001), Value: v(10)},
		{Kind: BatchUpsert, Key: k(5002), Value: v(20)},
		{Kind: BatchUpsert, Key: k(5001), Value: v(30)},
		{Kind: BatchUpsert, Key: k(5003), Value: v(40)},
		// Reads of a preloaded key and a batch-written key.
		{Kind: BatchRead, Key: k(7), Output: out1},
		{Kind: BatchRead, Key: k(5001), Output: out2},
		// RMW and delete.
		{Kind: BatchRMW, Key: k(5002), Value: v(5)},
		{Kind: BatchDelete, Key: k(5003)},
		// Errors surface per-op.
		{Kind: BatchUpsert, Key: nil, Value: v(1)},
	}
	if err := sess.ExecBatch(ops); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Status{OK, OK, OK, OK, OK, OK, OK, OK, Err} {
		if ops[i].Status != want {
			t.Errorf("op %d: status %v (err %v), want %v", i, ops[i].Status, ops[i].Err, want)
		}
	}
	if got := binary.LittleEndian.Uint64(out1); got != 1 {
		t.Errorf("read preloaded key: got %d, want 1", got)
	}
	if got := binary.LittleEndian.Uint64(out2); got != 30 {
		t.Errorf("duplicate upsert: got %d, want 30 (last write)", got)
	}

	// Verify the follow-up state with single ops.
	out := make([]byte, 8)
	if st, _ := sess.Read(k(5002), nil, out, nil); st != OK || binary.LittleEndian.Uint64(out) != 25 {
		t.Errorf("rmw result: %v %d, want OK 25", st, binary.LittleEndian.Uint64(out))
	}
	if st, _ := sess.Read(k(5003), nil, out, nil); st != NotFound {
		t.Errorf("deleted key: %v, want NotFound", st)
	}
}

func openHotHybrid(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{
		Mode:         hlog.ModeHybrid,
		PageBits:     12,
		BufferPages:  8,
		Device:       device.NewMem(device.MemConfig{}),
		IndexBuckets: 1 << 9,
		Ops:          SumOps{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestExecBatchReadOnlyCopy shifts the read-only offset between
// batches, so every round's upserts land on read-only records and the
// batch path must publish fresh tail records instead of updating in
// place.
func TestExecBatchReadOnlyCopy(t *testing.T) {
	s := openHotHybrid(t)
	sess := s.StartSession()
	defer sess.Close()

	key := make([]byte, 8)
	val := make([]byte, 8)
	ops := make([]BatchOp, 8)
	for round := 0; round < 16; round++ {
		for i := range ops {
			binary.LittleEndian.PutUint64(key, uint64(i+1))
			binary.LittleEndian.PutUint64(val, uint64(round))
			ops[i] = BatchOp{Kind: BatchUpsert,
				Key:   append([]byte(nil), key...),
				Value: append([]byte(nil), val...)}
		}
		if err := sess.ExecBatch(ops); err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			if ops[i].Status != OK {
				t.Fatalf("round %d op %d: %v %v", round, i, ops[i].Status, ops[i].Err)
			}
		}
		s.Log().ShiftReadOnlyToTail()
	}
	// Every round after the first lands on read-only records: all 8 ops
	// of all 16 rounds must have appended (none updated in place).
	if st := s.Stats(); st.Appends < 16*8 || st.InPlace != 0 {
		t.Fatalf("batch did not take the append path (appends=%d inPlace=%d)", st.Appends, st.InPlace)
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(key, 3)
	if st, _ := sess.Read(key, nil, out, nil); st != OK || binary.LittleEndian.Uint64(out) != 15 {
		t.Fatalf("final read: %v %d, want OK 15", st, binary.LittleEndian.Uint64(out))
	}
}

// ---------------------------------------------------------------------------
// Benchmarks (run with -cpu 1,4,16 for the scaling picture)
// ---------------------------------------------------------------------------

// benchKeys sizes the benchmark working set (~32 MB of log records plus
// a 16 MB index) to exceed the cache hierarchy, so the benchmarks
// measure the memory system the way a real uniform workload does.
const benchKeys = 1 << 20

func openBenchStore(tb testing.TB) *Store {
	tb.Helper()
	s, err := Open(Config{
		PageBits:        22,
		BufferPages:     16,
		MutableFraction: 1,
		Device:          device.NewNull(),
		IndexBuckets:    1 << 18,
		Ops:             SumOps{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	preload := s.StartSession()
	const chunk = 256
	ops := make([]BatchOp, chunk)
	backing := make([]byte, 8*chunk)
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	for k := uint64(0); k < benchKeys; k += chunk {
		for j := range ops {
			kb := backing[j*8 : j*8+8]
			binary.LittleEndian.PutUint64(kb, k+uint64(j)+1)
			ops[j] = BatchOp{Kind: BatchUpsert, Key: kb, Value: one}
		}
		if err := preload.ExecBatch(ops); err != nil {
			tb.Fatal(err)
		}
		for j := range ops {
			if ops[j].Status != OK {
				tb.Fatalf("preload key %d: %v %v", k+uint64(j)+1, ops[j].Status, ops[j].Err)
			}
		}
	}
	preload.Close()
	return s
}

// benchKey scatters i across the keyspace (golden-ratio multiply) so
// successive operations touch unrelated cache lines.
func benchKey(buf []byte, i uint64) {
	binary.LittleEndian.PutUint64(buf, (i*0x9E3779B97F4A7C15)&(benchKeys-1)+1)
}

func BenchmarkReadU64(b *testing.B) {
	s := openBenchStore(b)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		key := make([]byte, 8)
		out := make([]byte, 8)
		i := seq.Add(1) * 977
		for pb.Next() {
			benchKey(key, i)
			i++
			if st, err := sess.Read(key, nil, out, nil); st != OK {
				b.Fatal(st, err)
			}
		}
	})
}

func BenchmarkUpsertU64(b *testing.B) {
	s := openBenchStore(b)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		key := make([]byte, 8)
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, 1)
		i := seq.Add(1) * 977
		for pb.Next() {
			benchKey(key, i)
			i++
			if st, err := sess.Upsert(key, val); st != OK {
				b.Fatal(st, err)
			}
		}
	})
}

func BenchmarkRMWU64(b *testing.B) {
	s := openBenchStore(b)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		key := make([]byte, 8)
		delta := make([]byte, 8)
		binary.LittleEndian.PutUint64(delta, 1)
		i := seq.Add(1) * 977
		for pb.Next() {
			benchKey(key, i)
			i++
			if st, err := sess.RMW(key, delta, nil); st != OK {
				b.Fatal(st, err)
			}
		}
	})
}

// BenchmarkBatchReadU64 is BenchmarkReadU64 issued through ExecBatch in
// windows of 64; the ratio of the two at -cpu 16 is the batch-speedup
// acceptance number.
func BenchmarkBatchReadU64(b *testing.B) {
	s := openBenchStore(b)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		const batch = 64
		keys := make([]byte, 8*batch)
		outs := make([]byte, 8*batch)
		ops := make([]BatchOp, batch)
		i := seq.Add(1) * 977
		for pb.Next() {
			// One pb.Next() per operation: assemble a window of 64, then
			// execute it when full.
			slot := int(i % batch)
			benchKey(keys[slot*8:slot*8+8], i)
			ops[slot] = BatchOp{Kind: BatchRead,
				Key:    keys[slot*8 : slot*8+8],
				Output: outs[slot*8 : slot*8+8]}
			i++
			if slot == batch-1 {
				if err := sess.ExecBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkBatchUpsertU64(b *testing.B) {
	s := openBenchStore(b)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		const batch = 64
		keys := make([]byte, 8*batch)
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, 1)
		ops := make([]BatchOp, batch)
		i := seq.Add(1) * 977
		for pb.Next() {
			slot := int(i % batch)
			benchKey(keys[slot*8:slot*8+8], i)
			ops[slot] = BatchOp{Kind: BatchUpsert,
				Key:   keys[slot*8 : slot*8+8],
				Value: val}
			i++
			if slot == batch-1 {
				if err := sess.ExecBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
