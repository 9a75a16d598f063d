package faster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// openCompactBenchStore builds a hybrid store whose stable region holds
// mostly dead versions: gens generations of n small records, pushed out
// of the mutable region so Compact has real work.
func openCompactBenchStore(tb testing.TB, n uint64, gens int) (*Store, *peakMem) {
	tb.Helper()
	dev := newPeakMem()
	s, err := Open(Config{
		Ops: SumOps{}, PageBits: 14, BufferPages: 16,
		MutableFraction: 0.5, IndexBuckets: 1 << 12, Device: dev,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close(); dev.Close() })
	sess := s.StartSession()
	for g := 0; g < gens; g++ {
		for i := uint64(0); i < n; i++ {
			if st, err := sess.Upsert(key(i), u64(i+uint64(g))); st != OK {
				tb.Fatalf("preload: %v %v", st, err)
			}
		}
		// Seal each generation so the next one RCU-appends fresh
		// versions instead of updating in place: the stable prefix ends
		// up (gens-1)/gens dead.
		s.Log().ShiftReadOnlyToTail()
		sess.Refresh()
	}
	sess.CompletePending(true)
	sess.Close()
	return s, dev
}

// BenchmarkCompaction times a full copy-forward pass over a stable
// region that is ~75% dead versions and reports the space economics:
// bytes reclaimed, live bytes rewritten, the resulting write
// amplification (copied/reclaimed — lower is better), what the pass
// read from the device: its bytes, and the chain descents among them, and
// the device space it needed: the drive's high-water during the pass
// minus its size at the start.
func BenchmarkCompaction(b *testing.B) {
	var reclaimed, copied, read, descents, peak float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, dev := openCompactBenchStore(b, 4096, 4)
		cut := s.Log().SafeReadOnlyAddress()
		if cut <= s.Log().BeginAddress() {
			b.Fatal("no stable region to compact")
		}
		if err := s.Log().WaitUntilFlushed(cut, nil); err != nil {
			b.Fatal(err)
		}
		start := dev.resetPeak()
		bytesRead, issued := dev.Stats().BytesRead, s.Metrics().PendingIssued
		b.StartTimer()
		stats, err := s.Compact(cut)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		reclaimed += float64(stats.ReclaimedBytes)
		copied += float64(stats.CopiedBytes)
		read += float64(dev.Stats().BytesRead - bytesRead)
		descents += float64(s.Metrics().PendingIssued - issued)
		peak += float64(dev.peak.Load() - start)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(reclaimed/float64(b.N), "reclaimed-B/op")
	b.ReportMetric(copied/float64(b.N), "copied-B/op")
	b.ReportMetric(read/float64(b.N), "read-B/op")
	b.ReportMetric(descents/float64(b.N), "descents/op")
	b.ReportMetric(peak/float64(b.N), "peak-stored-B/op")
	if reclaimed > 0 {
		b.ReportMetric(copied/reclaimed, "write-amp")
	}
}

// BenchmarkReadDuringCompaction measures read latency while a background
// writer continuously overwrites keys and compacts the stable region —
// the figure of merit for online space reclamation: how much does
// reclaiming cost the foreground?
func BenchmarkReadDuringCompaction(b *testing.B) {
	const n = 4096
	s, _ := openCompactBenchStore(b, n, 2)
	before := s.Metrics().Compactions

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := s.StartSession()
		defer w.Close()
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.Upsert(key(i%n), u64(i))
			if i++; i%n == 0 {
				w.Park()
				s.Log().ShiftReadOnlyToTail()
				if cut := s.Log().SafeReadOnlyAddress(); cut > s.Log().BeginAddress() {
					s.Compact(cut)
				}
				w.Unpark()
			}
		}
	}()

	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.StartSession()
		defer sess.Close()
		kb := make([]byte, 8)
		out := make([]byte, 8)
		i := seq.Add(1) * 977
		for pb.Next() {
			binary.LittleEndian.PutUint64(kb, (i*0x9E3779B97F4A7C15)%n)
			i++
			st, err := sess.Read(kb, nil, out, nil)
			switch st {
			case OK, NotFound:
			case Pending:
				sess.CompletePending(true)
			default:
				b.Fatal(st, err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(s.Metrics().Compactions-before), "compactions")
}
