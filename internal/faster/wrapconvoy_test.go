package faster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/testutil"
)

// TestWrapConvoyRegression drives many concurrent writers through a
// small wrapping buffer (4 KiB pages, so a page turns every ~128
// records) and requires steady progress.
//
// Regression: each page turn is gated on two epoch trigger round-trips
// (flush the read-only span, then close the evicted frame), and each
// round-trip completes only after every concurrent allocator has
// published a fresh epoch. Allocate's tail-wedge spin used to refresh
// its guard only every 64 spins and busy-Gosched in between, so with
// more writers than cores the spinners starved the page opener of CPU
// while pinning old epochs: throughput collapsed ~1000x (a few page
// turns per second) once writer count exceeded GOMAXPROCS' ability to
// schedule everyone promptly. The spin now refreshes on every
// iteration and backs off to sleeps, keeping page turnover at device
// speed regardless of writer count.
func TestWrapConvoyRegression(t *testing.T) {
	for _, g := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("writers=%d", g), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			dev := device.NewMem(device.MemConfig{Workers: 8})
			defer dev.Close()
			s, err := Open(Config{
				Ops: SumOps{}, IndexBuckets: 1 << 15,
				PageBits: 12, BufferPages: 128,
				Device: dev, MaxSessions: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const perG = 60000
			var wg sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := s.StartSession()
					defer sess.Close()
					key := make([]byte, 8)
					val := make([]byte, 8)
					binary.LittleEndian.PutUint64(val, 1)
					for i := 0; i < perG; i++ {
						binary.LittleEndian.PutUint64(key, uint64(w*perG+i)|1)
						if st, err := sess.Upsert(key, val); st != OK {
							t.Error(st, err)
							return
						}
					}
				}(w)
			}
			go func() { wg.Wait(); close(done) }()
			// Each subtest finishes in well under a second when page
			// turnover is healthy; 60s is pure safety margin for slow
			// or race-instrumented hosts. The convoy bug blew through
			// any timeout (estimated minutes at 16 writers).
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				lg := s.Log()
				em := s.Metrics().Epoch
				t.Fatalf("writers stalled: tail=%#x head=%#x ro=%#x safeRO=%#x flushed=%#x epoch{cur=%d safe=%d pending=%d registered=%d}",
					lg.TailAddress(), lg.HeadAddress(), lg.ReadOnlyAddress(), lg.SafeReadOnlyAddress(),
					lg.FlushedUntilAddress(),
					em.CurrentEpoch, em.SafeEpoch, em.DrainListDepth, em.Registered)
			}
		})
	}
}
