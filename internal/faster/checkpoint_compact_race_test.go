package faster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
)

// TestCheckpointCompactRace regresses the checkpoint/compaction
// interleaving gap: a Checkpoint taken while Compact is mid-copy-forward
// must record a Begin that is consistent with its own [T1,T2) bracket.
//
// The broken interleaving (Begin sampled at meta-write time): compaction
// copies the live records of [begin, until) to the tail — above the
// checkpoint's T2, so outside its recovered prefix — then shifts Begin to
// `until` while the checkpoint is still waiting out its flush. The late
// sample then publishes Begin=until, so recovery discards the *sources*
// below `until` too, and every key whose only durable copy sat in the
// compacted span silently vanishes. Sampling Begin before T1 closes the
// gap; this test races the two under -race with a write-stalled device to
// keep the flush window wide, then recovers and demands every key back.
func TestCheckpointCompactRace(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			mem := device.NewMem(device.MemConfig{})
			dev := device.NewFaulty(mem)
			cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
				IndexBuckets: 1 << 10, Device: dev}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()

			// Keys 0..n-1 are written once: after the filler churn below,
			// their only copies live in the compactable prefix.
			const n = 150
			for i := uint64(0); i < n; i++ {
				if st, _ := sess.Upsert(key(i), u64(i+1)); st != OK {
					t.Fatalf("upsert %d failed", i)
				}
			}
			// Filler versions push the prefix out of the mutable region.
			for i := uint64(1000); i < 1600; i++ {
				sess.Upsert(key(i), u64(i))
			}
			sess.CompletePending(true)
			s.Log().ShiftReadOnlyToTail()
			sess.Refresh()
			cut := s.Log().SafeReadOnlyAddress()
			if cut <= s.Log().BeginAddress() {
				t.Skip("nothing became read-only")
			}
			sess.Park()

			// Stall device writes so the checkpoint's flush wait stays open
			// while the compaction runs its copy-forward and begin shift.
			var stall atomic.Bool
			stall.Store(true)
			dev.SetHook(func(op device.Op, _ uint64, _ int) error {
				if stall.Load() && op == device.OpWrite {
					time.Sleep(2 * time.Millisecond)
				}
				return nil
			})

			var (
				wg         sync.WaitGroup
				ckptErr    error
				compactErr error
			)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, ckptErr = s.Checkpoint(dir)
			}()
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(round) * time.Millisecond)
				_, compactErr = s.Compact(cut)
			}()
			wg.Wait()
			stall.Store(false)
			dev.SetHook(nil)
			if ckptErr != nil {
				t.Fatalf("checkpoint: %v", ckptErr)
			}
			if compactErr != nil {
				t.Fatalf("compact: %v", compactErr)
			}
			sess.Unpark()
			sess.Close()
			s.Close()

			r, err := Recover(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			rs := r.StartSession()
			for i := uint64(0); i < n; i++ {
				got, st := readU64(t, rs, key(i))
				if st != OK || got != i+1 {
					t.Fatalf("round %d: key %d after recovery = (%d, %v), want (%d, OK): "+
						"checkpoint Begin swallowed the compacted prefix", round, i, got, st, i+1)
				}
			}
			rs.Close()
			r.Close()
		})
	}
}

// TestCheckpointPinsDeviceTruncation: while a checkpoint is in flight —
// its Begin sampled, its generation not yet committed — no truncation may
// free the device below that Begin, even with no earlier checkpoint to
// clamp to. Without the pin a compaction that finishes before the
// checkpoint's commit fsyncs frees the span its recovery must read
// (TestCheckpointCompactRace under a slow disk).
func TestCheckpointPinsDeviceTruncation(t *testing.T) {
	s, err := Open(Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: device.NewMem(device.MemConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	for i := uint64(0); i < 600; i++ {
		sess.Upsert(key(i), u64(i))
	}
	sess.CompletePending(true)
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	sess.Park()
	defer func() { sess.Unpark(); sess.Close() }()

	begin := s.Log().BeginAddress()
	page := s.Log().PageSize()
	cut := s.Log().SafeReadOnlyAddress() &^ (page - 1)
	if cut < begin+2*page {
		t.Skipf("only %#x bytes read-only", cut-begin)
	}
	// Two checkpoints in flight at the same Begin; the first finishes
	// (twice: release is idempotent and must not drop the second's pin).
	first, second := s.pinDeviceTruncation(), s.pinDeviceTruncation()
	first()
	first()
	if err := s.TruncateUntil(begin + page); err != nil {
		t.Fatal(err)
	}
	if got := s.Log().TruncatedUntil(); got > begin {
		t.Fatalf("device truncated to %#x past the in-flight checkpoint's Begin %#x", got, begin)
	}
	second()
	if err := s.TruncateUntil(cut); err != nil {
		t.Fatal(err)
	}
	if got := s.Log().TruncatedUntil(); got != cut {
		t.Fatalf("device truncated to %#x after release, want %#x", got, cut)
	}
}
