package faster

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/device"
)

// TestColdReadOneDeviceCall: every cold read is one span read. Sixteen
// reads of neighbouring records below the head return the right values
// and cost exactly one device call per read that went pending.
func TestColdReadOneDeviceCall(t *testing.T) {
	mem := device.NewMem(device.MemConfig{ReadLatency: 2 * time.Millisecond})
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: mem,
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

	// Keys 200..215 were appended back-to-back (32-byte records) far below
	// the head address. Issue all sixteen reads before draining, so they
	// are in flight together.
	before := mem.Stats().Reads
	outs := make([][]byte, 16)
	pending := 0
	for i := range outs {
		outs[i] = make([]byte, 8)
		st, err := sess.Read(key(uint64(200+i)), nil, outs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == Pending {
			pending++
		}
	}
	if pending == 0 {
		t.Fatal("no read went pending; the records are resident (shrink the buffer)")
	}
	results := sess.CompletePending(true)
	if len(results) != pending {
		t.Fatalf("drained %d results, want %d", len(results), pending)
	}
	for _, r := range results {
		if r.Status != OK || r.Err != nil {
			t.Fatalf("cold read = %v %v", r.Status, r.Err)
		}
	}
	for i := range outs {
		if got := binary.LittleEndian.Uint64(outs[i]); got != uint64(200+i+1) {
			t.Fatalf("key %d = %d, want %d", 200+i, got, 200+i+1)
		}
	}
	if got := mem.Stats().Reads - before; got != uint64(pending) {
		t.Fatalf("%d pending reads cost %d device reads, want one each", pending, got)
	}
}

// TestColdReadLongRecord: a record longer than the first-read span costs
// exactly one more device read, of the whole record, and comes back
// byte-exact.
func TestColdReadLongRecord(t *testing.T) {
	s, mem := openTestStore(t, Config{Ops: BlobOps{}, PageBits: 14})
	sess := s.StartSession()
	defer sess.Close()
	long := make([]byte, firstReadBytes+1904)
	for i := range long {
		long[i] = byte(i*7 + i>>8)
	}
	if st, err := sess.Upsert(key(1), long); st != OK {
		t.Fatalf("upsert long value: %v %v", st, err)
	}
	filler := make([]byte, 1<<10)
	for i := uint64(2); s.Log().InMemory(firstAddr(t, s, key(1))); i++ {
		if st, err := sess.Upsert(key(i), filler); st != OK {
			t.Fatalf("upsert filler: %v %v", st, err)
		}
	}

	before := mem.Stats().Reads
	out := make([]byte, len(long))
	st, err := sess.Read(key(1), nil, out, nil)
	if err != nil || st != Pending {
		t.Fatalf("read of the evicted long record = %v %v, want Pending", st, err)
	}
	results := sess.CompletePending(true)
	if len(results) != 1 || results[0].Status != OK || results[0].ValueLen != len(long) {
		t.Fatalf("long cold read = %+v", results)
	}
	if !bytes.Equal(out, long) {
		t.Fatal("long cold read returned different bytes")
	}
	if got := mem.Stats().Reads - before; got != 2 {
		t.Fatalf("long cold read cost %d device reads, want 2", got)
	}
}

// firstAddr returns the address the index holds for k.
func firstAddr(t *testing.T, s *Store, k []byte) uint64 {
	t.Helper()
	_, addr, ok := s.idx.FindEntry(hashKey(k))
	if !ok {
		t.Fatalf("key %x not indexed", k)
	}
	return addr
}

// TestColdReadAfterRecoverPartialPage: a checkpoint cut mid-page leaves
// the device holding that page only up to the cut, and recovery resumes
// on the next page. A cold read of the last record below the recovered
// tail must still be one device read running to its page end: recovery
// zeroes the rest of the page on the device (hlog RecoverTo), so the span
// never meets bytes the device never got — neither right after this
// recovery nor after a later one that no longer knows this tail.
func TestColdReadAfterRecoverPartialPage(t *testing.T) {
	dir := t.TempDir()
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8, IndexBuckets: 256, Device: mem}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	const n = 50 // 50 32-byte records: the tail stays inside the first page
	for i := uint64(0); i < n; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.Close()
	info, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if page := s.Log().PageSize(); info.T2%page == 0 || info.T2 > page {
		t.Fatalf("checkpoint tail %#x is not inside the first page", info.T2)
	}

	// coldRead recovers the latest checkpoint and reads key n-1, whose
	// record ends at the first checkpoint's tail, from the device.
	coldRead := func(lifetime string, more func(*Session)) *Store {
		r, err := Recover(cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		if addr := firstAddr(t, r, key(n-1)); r.Log().InMemory(addr) || addr+uint64(recordSize(8, 8)) != info.T2 {
			t.Fatalf("%s: key %d at %#x, want the on-device record ending at %#x", lifetime, n-1, addr, info.T2)
		}
		rs := r.StartSession()
		defer rs.Close()
		before := mem.Stats().Reads
		if got, st := readU64(t, rs, key(n-1)); st != OK || got != n {
			t.Fatalf("%s: cold read = (%d, %v), want (%d, OK)", lifetime, got, st, n)
		}
		if got := mem.Stats().Reads - before; got != 1 {
			t.Fatalf("%s: cold read cost %d device reads, want 1", lifetime, got)
		}
		more(rs)
		return r
	}
	r := coldRead("first recovery", func(rs *Session) {
		for i := uint64(1000); i < 1200; i++ { // onto later pages
			rs.RMW(key(i), u64(i), nil)
		}
	})
	if _, err := r.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	r.Close()
	coldRead("second recovery", func(*Session) {}).Close()
}
