package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/device"
)

func varLenStore(t *testing.T) *Store {
	t.Helper()
	dev := device.NewMem(device.MemConfig{})
	s, err := Open(Config{
		Ops: VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: 14, BufferPages: 16, MutableFraction: 0.75,
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); dev.Close() })
	return s
}

func delta(d int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(d))
	return b
}

func TestVarLenEncodeDecode(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte("hello world"), bytes.Repeat([]byte{7}, 100)} {
		buf := VarLenEncode(payload)
		// Decode from an oversized buffer, as reads do.
		big := make([]byte, len(buf)+32)
		copy(big, buf)
		got, ok := VarLenDecode(big)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("decode(%q) = %q, %v", payload, got, ok)
		}
	}
	// Truncated / inconsistent frames must fail closed.
	if _, ok := VarLenDecode([]byte{1, 2, 3}); ok {
		t.Fatal("short buffer decoded")
	}
	if _, ok := VarLenDecode(VarLenEncode(make([]byte, 64))[:32]); ok {
		t.Fatal("truncated frame decoded")
	}
}

func TestVarLenUpsertReadDelete(t *testing.T) {
	s := varLenStore(t)
	sess := s.StartSession()
	defer sess.Close()
	out := make([]byte, varLenHeader+256)

	for i, val := range []string{"short", "a considerably longer value", ""} {
		key := []byte(fmt.Sprintf("k%d", i))
		if st, err := sess.Upsert(key, VarLenEncode([]byte(val))); st != OK || err != nil {
			t.Fatalf("upsert: %v %v", st, err)
		}
		st, err := sess.Read(key, nil, out, nil)
		if st != OK || err != nil {
			t.Fatalf("read: %v %v", st, err)
		}
		got, ok := VarLenDecode(out)
		if !ok || string(got) != val {
			t.Fatalf("read %q = %q (%v)", key, got, ok)
		}
	}

	// Overwrite with a shorter value (in place) and a longer one (RCU).
	key := []byte("k0")
	for _, val := range []string{"s", "much much much longer than before, forcing an RCU append"} {
		if st, err := sess.Upsert(key, VarLenEncode([]byte(val))); st != OK || err != nil {
			t.Fatalf("overwrite: %v %v", st, err)
		}
		if st, _ := sess.Read(key, nil, out, nil); st != OK {
			t.Fatalf("read after overwrite: %v", st)
		}
		if got, ok := VarLenDecode(out); !ok || string(got) != val {
			t.Fatalf("overwrite read = %q (%v)", got, ok)
		}
	}

	if st, err := sess.Delete(key); st != OK || err != nil {
		t.Fatalf("delete: %v %v", st, err)
	}
	if st, _ := sess.Read(key, nil, out, nil); st != NotFound {
		t.Fatalf("read after delete = %v, want NotFound", st)
	}
}

func TestVarLenCounterRMW(t *testing.T) {
	s := varLenStore(t)
	sess := s.StartSession()
	defer sess.Close()
	key := []byte("ctr")
	out := make([]byte, varLenHeader+8)

	// Insert via RMW, then accumulate.
	for i, d := range []int64{5, 10, -3} {
		if st, err := sess.RMW(key, delta(d), nil); st != OK || err != nil {
			t.Fatalf("rmw %d: %v %v", i, st, err)
		}
	}
	if st, _ := sess.Read(key, nil, out, nil); st != OK {
		t.Fatal("read counter")
	}
	if n, ok := VarLenCounter(out); !ok || n != 12 {
		t.Fatalf("counter = %d (%v), want 12", n, ok)
	}

	// RMW over a non-counter value resets it to the delta.
	if st, _ := sess.Upsert(key, VarLenEncode([]byte("not a number"))); st != OK {
		t.Fatal("upsert blob")
	}
	if n, ok := VarLenCounter(VarLenEncode([]byte("not a number"))); ok {
		t.Fatalf("non-counter decoded as %d", n)
	}
	if st, err := sess.RMW(key, delta(7), nil); st != OK || err != nil {
		t.Fatalf("rmw over blob: %v %v", st, err)
	}
	if st, _ := sess.Read(key, nil, out, nil); st != OK {
		t.Fatal("read reset counter")
	}
	if n, ok := VarLenCounter(out); !ok || n != 7 {
		t.Fatalf("reset counter = %d (%v), want 7", n, ok)
	}
}

// delta9 frames a delta with the 9th overflow-status byte appended,
// pre-poisoned so a test catches paths that fail to write the verdict.
func delta9(d int64) []byte {
	b := make([]byte, 9)
	binary.LittleEndian.PutUint64(b, uint64(d))
	b[8] = 0xAA
	return b
}

func TestVarLenCounterOverflow(t *testing.T) {
	s := varLenStore(t)
	sess := s.StartSession()
	defer sess.Close()
	out := make([]byte, varLenHeader+8)
	readCounter := func(key []byte) int64 {
		t.Helper()
		if st, err := sess.Read(key, nil, out, nil); st != OK || err != nil {
			t.Fatalf("read %q: %v %v", key, st, err)
		}
		n, ok := VarLenCounter(out)
		if !ok {
			t.Fatalf("key %q is not a counter", key)
		}
		return n
	}

	// Insert through the 9-byte path: a single delta cannot overflow and
	// the poisoned flag must come back cleared.
	key := []byte("ovf")
	in := delta9(maxInt64 - 1)
	if st, err := sess.RMW(key, in, nil); st != OK || err != nil {
		t.Fatalf("initial rmw: %v %v", st, err)
	}
	if in[8] != 0 {
		t.Fatalf("initial rmw left flag %d, want 0", in[8])
	}

	// +1 still fits; +2 would wrap: the counter must hold and the flag
	// must report.
	in = delta9(1)
	if st, err := sess.RMW(key, in, nil); st != OK || err != nil || in[8] != 0 {
		t.Fatalf("+1 at MaxInt64-1: %v %v flag=%d", st, err, in[8])
	}
	in = delta9(2)
	if st, err := sess.RMW(key, in, nil); st != OK || err != nil {
		t.Fatalf("overflowing rmw: %v %v", st, err)
	}
	if in[8] != 1 {
		t.Fatalf("overflowing rmw flag = %d, want 1", in[8])
	}
	if got := readCounter(key); got != maxInt64 {
		t.Fatalf("counter after rejected overflow = %d, want MaxInt64", got)
	}

	// The sealed/read-only copy-update path must enforce the same bound.
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	in = delta9(1)
	if st, err := sess.RMW(key, in, nil); st != OK || err != nil {
		t.Fatalf("copy-update overflow rmw: %v %v", st, err)
	}
	if in[8] != 1 {
		t.Fatalf("copy-update overflow flag = %d, want 1", in[8])
	}
	if got := readCounter(key); got != maxInt64 {
		t.Fatalf("counter after copy-update overflow = %d, want MaxInt64", got)
	}
	// A fitting decrement clears the flag and moves the counter again.
	in = delta9(-10)
	if st, err := sess.RMW(key, in, nil); st != OK || err != nil || in[8] != 0 {
		t.Fatalf("decrement after overflow: %v %v flag=%d", st, err, in[8])
	}
	if got := readCounter(key); got != maxInt64-10 {
		t.Fatalf("counter after decrement = %d, want MaxInt64-10", got)
	}

	// Negative direction: MinInt64 - 1 must be rejected identically.
	nkey := []byte("ovf-neg")
	if st, err := sess.RMW(nkey, delta9(minInt64), nil); st != OK || err != nil {
		t.Fatalf("seed MinInt64: %v %v", st, err)
	}
	in = delta9(-1)
	if st, err := sess.RMW(nkey, in, nil); st != OK || err != nil {
		t.Fatalf("underflow rmw: %v %v", st, err)
	}
	if in[8] != 1 {
		t.Fatalf("underflow flag = %d, want 1", in[8])
	}
	if got := readCounter(nkey); got != minInt64 {
		t.Fatalf("counter after rejected underflow = %d, want MinInt64", got)
	}

	// Legacy 8-byte inputs keep the historical wrapping behaviour.
	wkey := []byte("wrap")
	if st, err := sess.RMW(wkey, delta(maxInt64), nil); st != OK || err != nil {
		t.Fatalf("seed wrap key: %v %v", st, err)
	}
	if st, err := sess.RMW(wkey, delta(1), nil); st != OK || err != nil {
		t.Fatalf("wrapping rmw: %v %v", st, err)
	}
	if got := readCounter(wkey); got != minInt64 {
		t.Fatalf("8-byte input did not wrap: %d, want MinInt64", got)
	}

	// A 9-byte RMW over a non-counter value resets it (never "overflows").
	bkey := []byte("blob")
	if st, _ := sess.Upsert(bkey, VarLenEncode([]byte("not a number"))); st != OK {
		t.Fatal("upsert blob")
	}
	s.Log().ShiftReadOnlyToTail() // force the copy-update reset path
	sess.Refresh()
	in = delta9(41)
	if st, err := sess.RMW(bkey, in, nil); st != OK || err != nil || in[8] != 0 {
		t.Fatalf("reset rmw: %v %v flag=%d", st, err, in[8])
	}
	if got := readCounter(bkey); got != 41 {
		t.Fatalf("reset counter = %d, want 41", got)
	}
}

// delta17 frames a delta with the 17-byte status channel, pre-poisoned
// so a test catches paths that fail to write the verdict or the value.
func delta17(d int64) []byte {
	b := make([]byte, CounterInputLen)
	binary.LittleEndian.PutUint64(b, uint64(d))
	for i := 8; i < len(b); i++ {
		b[i] = 0xAA
	}
	return b
}

// TestVarLenCounterInput17 pins the 17-byte input contract: one RMW
// reports the post-update value, overflow and "not a counter", on the
// insert, in-place and copy-update paths, and a refused non-counter
// value stays byte-identical.
func TestVarLenCounterInput17(t *testing.T) {
	s := varLenStore(t)
	sess := s.StartSession()
	defer sess.Close()
	rmw := func(key []byte, d int64) (byte, int64) {
		t.Helper()
		in := delta17(d)
		if st, err := sess.RMW(key, in, nil); st != OK || err != nil {
			t.Fatalf("rmw %q %d: %v %v", key, d, st, err)
		}
		return in[8], int64(binary.LittleEndian.Uint64(in[9:]))
	}
	key := []byte("c17")
	if st, v := rmw(key, 5); st != CounterUpdated || v != 5 {
		t.Fatalf("insert = status %d value %d, want 0/5", st, v)
	}
	if st, v := rmw(key, -7); st != CounterUpdated || v != -2 {
		t.Fatalf("in-place = status %d value %d, want 0/-2", st, v)
	}
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	if st, v := rmw(key, 3); st != CounterUpdated || v != 1 {
		t.Fatalf("copy-update = status %d value %d, want 0/1", st, v)
	}
	if st, v := rmw(key, maxInt64); st != CounterOverflow || v != 1 {
		t.Fatalf("overflow = status %d value %d, want 1/1", st, v)
	}

	blob := VarLenEncode([]byte("not a number"))
	out := make([]byte, 64)
	for _, readOnly := range []bool{false, true} {
		bkey := []byte(fmt.Sprintf("blob-%v", readOnly))
		if st, _ := sess.Upsert(bkey, blob); st != OK {
			t.Fatal("upsert blob")
		}
		if readOnly {
			s.Log().ShiftReadOnlyToTail()
			sess.Refresh()
		}
		if st, _ := rmw(bkey, 1); st != CounterNotCounter {
			t.Fatalf("rmw over blob (read-only %v) = status %d, want %d", readOnly, st, CounterNotCounter)
		}
		if st, _ := sess.Read(bkey, nil, out, nil); st != OK || !bytes.Equal(out[:len(blob)], blob) {
			t.Fatalf("blob changed by refused rmw (read-only %v): %v %q", readOnly, st, out[:len(blob)])
		}
	}
}

func TestVarLenConcurrentCounters(t *testing.T) {
	s := varLenStore(t)
	const (
		workers = 8
		perW    = 2000
		keys    = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := s.StartSession()
			defer sess.Close()
			for i := 0; i < perW; i++ {
				key := []byte(fmt.Sprintf("c%d", i%keys))
				if st, err := sess.RMW(key, delta(1), nil); st == Pending {
					sess.CompletePending(true)
				} else if st != OK || err != nil {
					panic(fmt.Sprintf("rmw: %v %v", st, err))
				}
			}
		}(w)
	}
	wg.Wait()
	sess := s.StartSession()
	defer sess.Close()
	out := make([]byte, varLenHeader+8)
	var total int64
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("c%d", i))
		st, err := sess.Read(key, nil, out, nil)
		if st == Pending {
			for _, r := range sess.CompletePending(true) {
				st, err = r.Status, r.Err
			}
		}
		if st != OK || err != nil {
			t.Fatalf("read %q: %v %v", key, st, err)
		}
		n, ok := VarLenCounter(out)
		if !ok {
			t.Fatalf("key %q is not a counter", key)
		}
		total += n
	}
	if total != workers*perW {
		t.Fatalf("total = %d, want %d", total, workers*perW)
	}
}
