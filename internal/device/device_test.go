package device

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testutil"
)

// writeSync is a test helper performing a blocking write.
func writeSync(t *testing.T, d Device, buf []byte, off uint64) {
	t.Helper()
	done := make(chan error, 1)
	d.WriteAsync(buf, off, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("write at %d: %v", off, err)
	}
}

// readSync is a test helper performing a blocking read.
func readSync(d Device, buf []byte, off uint64) error {
	done := make(chan error, 1)
	d.ReadAsync(buf, off, func(err error) { done <- err })
	return <-done
}

// devices returns fresh instances of every Device implementation that
// supports round-trip reads.
func devices(t *testing.T) map[string]Device {
	t.Helper()
	f, err := OpenFile(filepath.Join(t.TempDir(), "log.dat"), 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Device{
		"file": f,
		"mem":  NewMem(MemConfig{}),
	}
}

func TestRoundTrip(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			data := []byte("hello hybridlog page data payload")
			writeSync(t, d, data, 4096)
			got := make([]byte, len(data))
			if err := readSync(d, got, 4096); err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch: %q != %q", got, data)
			}
		})
	}
}

func TestReadBeyondExtentFails(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			writeSync(t, d, []byte("abc"), 0)
			buf := make([]byte, 10)
			if err := readSync(d, buf, 1<<20); err == nil {
				t.Fatal("expected error reading unwritten region")
			}
		})
	}
}

func TestReadSpanningExtents(t *testing.T) {
	// The log reads records that may straddle two flushed pages.
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			pageA := bytes.Repeat([]byte{0xAA}, 128)
			pageB := bytes.Repeat([]byte{0xBB}, 128)
			writeSync(t, d, pageA, 0)
			writeSync(t, d, pageB, 128)
			got := make([]byte, 64)
			if err := readSync(d, got, 96); err != nil {
				t.Fatalf("spanning read: %v", err)
			}
			want := append(bytes.Repeat([]byte{0xAA}, 32), bytes.Repeat([]byte{0xBB}, 32)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("spanning read mismatch")
			}
		})
	}
}

func TestTruncateInvalidatesReads(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			writeSync(t, d, bytes.Repeat([]byte{1}, 256), 0)
			writeSync(t, d, bytes.Repeat([]byte{2}, 256), 256)
			if err := d.Truncate(256); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16)
			if err := readSync(d, buf, 0); err == nil {
				t.Fatal("read below truncation point should fail")
			}
			if err := readSync(d, buf, 256); err != nil {
				t.Fatalf("read above truncation point: %v", err)
			}
		})
	}
}

func TestStatsCount(t *testing.T) {
	d := NewMem(MemConfig{})
	defer d.Close()
	writeSync(t, d, make([]byte, 100), 0)
	_ = readSync(d, make([]byte, 50), 0)
	s := d.Stats()
	if s.Writes != 1 || s.BytesWritten != 100 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.Reads != 1 || s.BytesRead != 50 {
		t.Fatalf("read stats = %+v", s)
	}
}

func TestMemTruncateFreesExtents(t *testing.T) {
	d := NewMem(MemConfig{})
	defer d.Close()
	writeSync(t, d, make([]byte, 1024), 0)
	writeSync(t, d, make([]byte, 1024), 1024)
	if got := d.StoredBytes(); got != 2048 {
		t.Fatalf("StoredBytes = %d, want 2048", got)
	}
	if err := d.Truncate(1024); err != nil {
		t.Fatal(err)
	}
	if got := d.StoredBytes(); got != 1024 {
		t.Fatalf("StoredBytes after truncate = %d, want 1024", got)
	}
}

func TestMemReadLatency(t *testing.T) {
	const lat = 5 * time.Millisecond
	d := NewMem(MemConfig{ReadLatency: lat})
	defer d.Close()
	writeSync(t, d, make([]byte, 64), 0)
	start := time.Now()
	if err := readSync(d, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("read completed in %v, want >= %v", elapsed, lat)
	}
}

// The simulated SSD keeps its configured latency in an otherwise idle
// process: a sleeping worker would be rounded up to the runtime's
// millisecond netpoll granularity.
func TestMemReadLatencyFidelity(t *testing.T) {
	const lat = 150 * time.Microsecond
	d := NewMem(MemConfig{ReadLatency: lat})
	defer d.Close()
	writeSync(t, d, make([]byte, 64), 0)
	const n = 200
	took := make([]time.Duration, n)
	for i := range took {
		done := make(chan error, 1)
		start := time.Now()
		d.ReadAsync(make([]byte, 64), 0, func(err error) {
			took[i] = time.Since(start)
			done <- err
		})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if took[0] < lat {
		t.Fatalf("a read completed after %v, before its %v latency", took[0], lat)
	}
	if med := took[n/2]; med > 2*lat {
		t.Fatalf("median read took %v for a %v latency (p90 %v)", med, lat, took[n*9/10])
	}
}

// Workers is the number of reads in service at once: eight reads on two
// slots complete in four waves of the read latency.
func TestMemReadServiceSlots(t *testing.T) {
	const lat = 2 * time.Millisecond
	d := NewMem(MemConfig{ReadLatency: lat, Workers: 2})
	defer d.Close()
	writeSync(t, d, make([]byte, 64), 0)
	const n = 8
	var mu sync.Mutex
	var took []time.Duration
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		d.ReadAsync(make([]byte, 64), 0, func(err error) {
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			took = append(took, time.Since(start))
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	for i, at := range took {
		if wave := time.Duration(i/2 + 1); at < wave*lat {
			t.Fatalf("read %d of wave %d completed at %v, before %v: %v", i, wave, at, wave*lat, took)
		}
	}
	// One slot would take eight waves.
	if last := took[n-1]; last >= 7*lat {
		t.Fatalf("last read completed at %v, want four waves of %v: %v", last, lat, took)
	}
}

// Close delivers what is in flight, each callback once, and then refuses.
func TestMemCloseDeliversInFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := NewMem(MemConfig{ReadLatency: 20 * time.Millisecond})
	writeSync(t, d, make([]byte, 64), 0)
	const n = 16
	var calls [n]atomic.Int32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		d.ReadAsync(make([]byte, 64), 0, func(err error) {
			calls[i].Add(1)
			errs <- err
		})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("read %d called back %d times, want 1", i, c)
		}
		if err := <-errs; err != nil {
			t.Fatalf("in-flight read failed at Close: %v", err)
		}
	}
	if err := readSync(d, make([]byte, 64), 0); err != ErrClosed {
		t.Fatalf("read after Close: %v, want ErrClosed", err)
	}
}

// A read copies the data when it is due, not when it is submitted: a
// truncate in between is seen, as on a drive that serves it then.
func TestMemReadSeesTruncateBeforeDue(t *testing.T) {
	d := NewMem(MemConfig{ReadLatency: 20 * time.Millisecond})
	defer d.Close()
	writeSync(t, d, make([]byte, 256), 0)
	done := make(chan error, 1)
	d.ReadAsync(make([]byte, 64), 0, func(err error) { done <- err })
	if err := d.Truncate(256); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrOutOfRange {
		t.Fatalf("read of a range truncated before it was due: %v, want ErrOutOfRange", err)
	}
}

func TestMemWriteBandwidthCap(t *testing.T) {
	// 1 MB/s cap; writing 256 KB must take roughly >= 150 ms (allowing
	// for the initial token bucket fill).
	d := NewMem(MemConfig{WriteBandwidth: 1 << 20, Workers: 1})
	defer d.Close()
	start := time.Now()
	const chunk = 64 << 10
	for i := 0; i < 4; i++ {
		writeSync(t, d, make([]byte, chunk), uint64(i*chunk))
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("4x64KB at 1MB/s finished in %v, throttle ineffective", elapsed)
	}
}

func TestClosedDeviceRejectsIO(t *testing.T) {
	d := NewMem(MemConfig{})
	d.Close()
	errs := make(chan error, 2)
	d.WriteAsync(make([]byte, 8), 0, func(err error) { errs <- err })
	d.ReadAsync(make([]byte, 8), 0, func(err error) { errs <- err })
	for i := 0; i < 2; i++ {
		if err := <-errs; err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	}
}

func TestSyncWaitsForOutstandingWrites(t *testing.T) {
	d := NewMem(MemConfig{Workers: 2})
	defer d.Close()
	var mu sync.Mutex
	completed := 0
	const n = 64
	for i := 0; i < n; i++ {
		d.WriteAsync(make([]byte, 512), uint64(i*512), func(error) {
			mu.Lock()
			completed++
			mu.Unlock()
		})
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if completed != n {
		t.Fatalf("Sync returned with %d/%d writes complete", completed, n)
	}
}

// TestSyncIgnoresReads: Sync waits for earlier writes only. A read still
// in service does not hold it up; on a busy device reads never drain.
func TestSyncIgnoresReads(t *testing.T) {
	d := NewMem(MemConfig{ReadLatency: 100 * time.Millisecond})
	defer d.Close()
	writeSync(t, d, make([]byte, 512), 0)
	read := make(chan error, 1)
	d.ReadAsync(make([]byte, 8), 0, func(err error) { read <- err })
	wrote := false
	d.WriteAsync(make([]byte, 512), 512, func(error) { wrote = true })
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-read:
		t.Fatal("Sync waited for a read")
	default:
	}
	if !wrote {
		t.Fatal("Sync returned before an earlier write completed")
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// TestSyncUnderSteadyIO calls Sync over and over while other goroutines
// keep reads and writes in flight, as a checkpoint does on a serving
// store. Every Sync must return, and only once each write submitted
// before it has completed.
func TestSyncUnderSteadyIO(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			const pageSize = 512
			writeSync(t, d, make([]byte, pageSize), 0)
			const maxWrites = 1 << 14
			var submitted, done [maxWrites]atomic.Bool
			var issued atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]byte, 8)
					slots := make(chan struct{}, 16) // writes in flight
					for {
						select {
						case <-stop:
							return
						default:
						}
						if w%2 == 0 {
							if err := readSync(d, buf, 0); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						i := issued.Add(1) - 1
						if i >= maxWrites {
							return
						}
						slots <- struct{}{}
						d.WriteAsync(make([]byte, pageSize), uint64(i%64)*pageSize, func(error) {
							done[i].Store(true)
							<-slots
						})
						submitted[i].Store(true)
					}
				}(w)
			}
			var before []int64
			for range 200 {
				before = before[:0]
				for i := range min(issued.Load(), maxWrites) {
					if submitted[i].Load() && !done[i].Load() {
						before = append(before, i)
					}
				}
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
				for _, i := range before {
					if !done[i].Load() {
						t.Fatalf("Sync returned before write %d completed", i)
					}
				}
			}
		})
	}
}

func TestConcurrentMixedIO(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			defer d.Close()
			const pages = 32
			const pageSize = 1024
			// Pre-write all pages with a recognizable pattern.
			for p := 0; p < pages; p++ {
				buf := bytes.Repeat([]byte{byte(p)}, pageSize)
				writeSync(t, d, buf, uint64(p*pageSize))
			}
			var wg sync.WaitGroup
			errCh := make(chan error, 256)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 50; i++ {
						p := rng.Intn(pages)
						buf := make([]byte, 64)
						if err := readSync(d, buf, uint64(p*pageSize)); err != nil {
							errCh <- err
							return
						}
						for _, b := range buf {
							if b != byte(p) {
								errCh <- fmt.Errorf("page %d corrupt: byte %d", p, b)
								return
							}
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

func TestNullDevice(t *testing.T) {
	d := NewNull()
	done := make(chan error, 1)
	d.WriteAsync(make([]byte, 99), 0, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatalf("null write: %v", err)
	}
	if err := readSync(d, make([]byte, 8), 0); err != ErrOutOfRange {
		t.Fatalf("null read err = %v, want ErrOutOfRange", err)
	}
	if s := d.Stats(); s.BytesWritten != 99 {
		t.Fatalf("stats = %+v", s)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of page-aligned writes followed by byte-granular
// reads inside the written extent returns exactly what was written.
func TestQuickMemWriteReadConsistency(t *testing.T) {
	f := func(pageData [][8]byte, readOff, readLen uint8) bool {
		if len(pageData) == 0 {
			return true
		}
		d := NewMem(MemConfig{})
		defer d.Close()
		const page = 8
		img := make([]byte, 0, len(pageData)*page)
		for i, pd := range pageData {
			buf := pd[:]
			img = append(img, buf...)
			done := make(chan error, 1)
			d.WriteAsync(buf, uint64(i*page), func(err error) { done <- err })
			if <-done != nil {
				return false
			}
		}
		off := int(readOff) % len(img)
		n := int(readLen)%(len(img)-off) + 1
		got := make([]byte, n)
		if err := readSync(d, got, uint64(off)); err != nil {
			return false
		}
		return bytes.Equal(got, img[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
