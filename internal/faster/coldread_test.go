package faster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/testutil"
)

// gateDevice holds read completions back while armed: the inner device
// finishes the read, then its callback goroutine waits at the gate before
// it reports. held receives one token per read that reaches the gate.
type gateDevice struct {
	device.Device
	armed atomic.Bool
	gate  chan struct{}
	held  chan struct{}
}

func (d *gateDevice) ReadAsync(buf []byte, off uint64, cb device.Callback) {
	d.Device.ReadAsync(buf, off, func(err error) {
		if d.armed.Load() {
			d.held <- struct{}{}
			<-d.gate
		}
		cb(err)
	})
}

// TestIOWorkerCompletionDriven pins the wake-channel protocol: while a
// cold read's device completion is held back, the io-worker makes no pass
// over its session's pending machinery at all (it is asleep on its event
// sources, not polling), it still admits and answers other requests, and
// releasing the device delivers the held read exactly once.
func TestIOWorkerCompletionDriven(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := device.NewMem(device.MemConfig{})
	dev := &gateDevice{Device: mem, gate: make(chan struct{}), held: make(chan struct{}, 8)}
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev, IOWorkers: 1,
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
	sess.SetResidentOnly(true)
	cold, hot := uint64(0), uint64(1499)
	out := make([]byte, 8)
	for ; cold < 1500; cold++ {
		if st, _ := sess.Read(key(cold), nil, out, nil); st == WouldBlock {
			break
		}
	}
	if st, _ := sess.Read(key(hot), nil, out, nil); cold == 1500 || st != OK {
		t.Fatalf("need one cold and one resident key (cold=%d, hot read %v)", cold, st)
	}
	sess.Close()

	var passes atomic.Int64
	debugReap = func() { passes.Add(1) }
	defer func() { debugReap = nil }()

	dev.armed.Store(true)
	r := newSubmitResult()
	if err := s.SubmitRead(key(cold), nil, time.Now().Add(time.Minute), nil, r.done); err != nil {
		t.Fatal(err)
	}
	<-dev.held // the device has the answer and is sitting on it

	// The worker is alive — a resident read goes straight through it —
	// and has not looked for the held completion once.
	rh := newSubmitResult()
	if err := s.SubmitRead(key(hot), nil, time.Time{}, nil, rh.done); err != nil {
		t.Fatal(err)
	}
	if res := rh.wait(t, 5*time.Second); res.Status != OK || !bytes.Equal(res.Output, u64(hot+1)) {
		t.Fatalf("resident read behind a held one = %v %v %x", res.Status, res.Err, res.Output)
	}
	if n := passes.Load(); n != 0 {
		t.Fatalf("worker made %d completion passes while the read was held, want 0", n)
	}
	if n := r.fires.Load(); n != 0 {
		t.Fatalf("held read delivered %d times before release", n)
	}

	dev.armed.Store(false)
	close(dev.gate)
	if res := r.wait(t, 5*time.Second); res.Status != OK || !bytes.Equal(res.Output, u64(cold+1)) {
		t.Fatalf("released read = %v %v %x, want OK %x", res.Status, res.Err, res.Output, u64(cold+1))
	}
	if n := passes.Load(); n == 0 {
		t.Fatal("read delivered without a completion pass")
	}
	// A second delivery would need a second pass finding the op again;
	// drive one with another cold read and count.
	r2 := newSubmitResult()
	if err := s.SubmitRead(key(cold), nil, time.Time{}, nil, r2.done); err != nil {
		t.Fatal(err)
	}
	r2.wait(t, 5*time.Second)
	if n := r.fires.Load(); n != 1 {
		t.Fatalf("done fired %d times, want exactly once", n)
	}
}

// TestColdReadBytesPerOp pins what a cold read costs the heap: through
// SubmitRead, at most 1 KiB plus the value itself, and the same whether
// the largest value the store holds (what a front-end's value limit would
// be set to) is 4 KiB or 512 KiB — nothing on the miss path is sized by a
// maximum. The large value itself comes back in an output exactly its
// length.
func TestColdReadBytesPerOp(t *testing.T) {
	const valueLen, records, warm, measured = 100, 48 << 10, 256, 8192
	perOp := make(map[int]float64)
	for _, largest := range []int{4 << 10, 512 << 10} {
		t.Run(fmt.Sprintf("largest=%dKiB", largest>>10), func(t *testing.T) {
			mem := device.NewMem(device.MemConfig{})
			s, err := Open(Config{
				Ops: VarLenOps{}, PageBits: 20, BufferPages: 4,
				IndexBuckets: 1 << 14, Device: mem, IOWorkers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				s.Close()
				mem.Close()
			}()
			sess := s.StartSession()
			big := bytes.Repeat([]byte{0xab}, largest)
			if st, err := sess.Upsert([]byte("the-largest-value"), VarLenEncode(big)); st != OK {
				t.Fatal(st, err)
			}
			val := make([]byte, valueLen)
			for i := uint64(0); i < records; i++ {
				copy(val, key(i))
				if st, err := sess.Upsert(key(i), VarLenEncode(val)); st != OK {
					t.Fatal(st, err)
				}
			}
			sess.Close()
			if s.Log().HeadAddress() == 0 {
				t.Fatal("store did not spill")
			}

			ch := make(chan Result, 1)
			done := func(r Result) { ch <- r }
			read := func(k []byte) Result {
				if err := s.SubmitRead(k, nil, time.Now().Add(time.Minute), nil, done); err != nil {
					t.Fatal(err)
				}
				return <-ch
			}
			if r := read([]byte("the-largest-value")); r.Status != OK ||
				len(r.Output) != 8+largest || r.ValueLen != 8+largest {
				t.Fatalf("largest value: %v %v, output %d bytes (ValueLen %d), want exactly %d",
					r.Status, r.Err, len(r.Output), r.ValueLen, 8+largest)
			} else if p, ok := VarLenDecode(r.Output); !ok || !bytes.Equal(p, big) {
				t.Fatal("largest value came back wrong")
			}
			for i := uint64(0); i < warm; i++ { // fill the free lists
				read(key(i))
			}
			issued := s.Metrics().PendingIssued
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := uint64(warm); i < warm+measured; i++ {
				if r := read(key(i)); r.Status != OK || len(r.Output) != 8+valueLen {
					t.Fatalf("key %d: %v %v, %d output bytes", i, r.Status, r.Err, len(r.Output))
				}
			}
			runtime.ReadMemStats(&after)
			if n := s.Metrics().PendingIssued - issued; n < measured {
				t.Fatalf("reads were not cold: %d device fetches for %d reads", n, measured)
			}
			b := float64(after.TotalAlloc-before.TotalAlloc) / measured
			perOp[largest] = b
			t.Logf("%.0f heap bytes per cold read of a %d-byte value", b, valueLen)
			if limit := float64(1024 + 8 + valueLen); b > limit {
				t.Fatalf("%.0f heap bytes per cold read, want at most %.0f", b, limit)
			}
		})
	}
	// Identical up to the odd free-list refill (one 32 KiB block buffer is
	// 4 bytes per read here).
	if a, b := perOp[4<<10], perOp[512<<10]; a == 0 || b == 0 || a-b > 16 || b-a > 16 {
		t.Fatalf("bytes per cold read differ with the largest value stored: %.1f at 4 KiB, %.1f at 512 KiB", a, b)
	}
}
