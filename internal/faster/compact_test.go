package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/device"
	"repro/internal/retry"
	"repro/internal/testutil"
)

// TestCompactReclaimsDeadVersions is the space-reclamation acceptance
// test: fill, overwrite (so most of the stable prefix is dead versions),
// compact, and require that at least half of the reclaimed span was dead
// bytes (write amplification below 0.5) and that the device actually
// shrank. Every key must still resolve to its newest value.
func TestCompactReclaimsDeadVersions(t *testing.T) {
	s, mem := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()

	const n = 400
	// Four versions per key: ~75% of the prefix is dead.
	for round := uint64(0); round < 4; round++ {
		for i := uint64(0); i < n; i++ {
			if st, _ := sess.Upsert(key(i), u64(i+round*1000)); st != OK {
				t.Fatalf("upsert round %d key %d failed", round, i)
			}
		}
	}
	sess.CompletePending(true)

	cut := s.Log().SafeReadOnlyAddress()
	if cut <= s.Log().BeginAddress() {
		t.Skip("nothing became read-only")
	}
	storedBefore := mem.StoredBytes()

	sess.Park()
	stats, err := s.Compact(cut)
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	if s.Log().BeginAddress() != cut {
		t.Fatalf("begin = %#x, want %#x", s.Log().BeginAddress(), cut)
	}
	if stats.ReclaimedBytes == 0 || stats.Copied == 0 {
		t.Fatalf("degenerate compaction: %+v", stats)
	}
	// Live bytes copied forward must be under half the reclaimed span:
	// the overwhelming majority of the prefix was dead versions.
	if 2*stats.CopiedBytes > stats.ReclaimedBytes {
		t.Fatalf("compaction write amp too high: copied %d of %d reclaimed",
			stats.CopiedBytes, stats.ReclaimedBytes)
	}

	// The metrics surface must agree with the returned stats.
	m := s.Metrics()
	if m.Compactions != 1 || m.ReclaimedBytes != stats.ReclaimedBytes ||
		m.CompactedBytes != stats.CopiedBytes || m.CompactedRecords != uint64(stats.Copied) {
		t.Fatalf("metrics disagree with stats: %+v vs %+v", m, stats)
	}
	if m.Log.TruncatedUntil != cut {
		t.Fatalf("device watermark = %#x, want %#x", m.Log.TruncatedUntil, cut)
	}

	// The in-memory device frees truncated extents, so real bytes came
	// back even accounting for the copied records at the tail.
	if storedAfter := mem.StoredBytes(); storedAfter >= storedBefore {
		t.Fatalf("device grew across compaction: %d -> %d bytes", storedBefore, storedAfter)
	}

	for i := uint64(0); i < n; i++ {
		got, st := readU64(t, sess, key(i))
		if st != OK || got != i+3000 {
			t.Fatalf("key %d after compact = (%d, %v), want (%d, OK)", i, got, st, i+3000)
		}
	}
}

// TestCompactConcurrentRMW races a compaction against a live RMW/read
// workload on the same keys: no committed increment may be lost and no
// deleted key may be resurrected by a copy-forward.
func TestCompactConcurrentRMW(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()

	const n = 200
	for i := uint64(0); i < n; i++ {
		if st, _ := sess.RMW(key(i), u64(1), nil); st == Pending {
			sess.CompletePending(true)
		}
	}
	// Push everything into the stable region so compaction has work.
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	cut := s.Log().SafeReadOnlyAddress()
	if cut <= s.Log().BeginAddress() {
		sess.Close()
		t.Skip("nothing became read-only")
	}

	// Background increments while the compaction runs. adds counts only
	// acknowledged increments.
	var adds [n]uint64
	stop := make(chan struct{})
	workDone := make(chan struct{})
	go func() {
		defer close(workDone)
		defer sess.Close()
		rng := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				sess.CompletePending(true)
				return
			default:
			}
			k := uint64(rng.Intn(n))
			st, err := sess.RMW(key(k), u64(1), nil)
			if st == Pending {
				for _, r := range sess.CompletePending(true) {
					st, err = r.Status, r.Err
				}
			}
			if err != nil {
				t.Errorf("rmw during compaction: %v", err)
				return
			}
			if st == OK {
				atomic.AddUint64(&adds[k], 1)
			}
		}
	}()

	stats, err := s.Compact(cut)
	close(stop)
	<-workDone
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compacted %d copied / %d skipped under load", stats.Copied, stats.Skipped)

	check := s.StartSession()
	defer check.Close()
	for i := uint64(0); i < n; i++ {
		got, st := readU64(t, check, key(i))
		want := 1 + atomic.LoadUint64(&adds[i])
		if st != OK || got != want {
			t.Fatalf("key %d = (%d, %v) after concurrent compaction, want (%d, OK)", i, got, st, want)
		}
	}
}

// TestCompactThenRecover proves recovery works from a checkpoint whose
// Begin sits above zero: compact (begin advances, device truncates),
// checkpoint, recover on a fresh handle, and verify every key.
func TestCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	const n = 600
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < n; i++ {
			sess.Upsert(key(i), u64(i+uint64(round)*10000))
		}
	}
	sess.CompletePending(true)
	sess.Close()

	cut := s.Log().SafeReadOnlyAddress()
	if cut <= s.Log().BeginAddress() {
		t.Skip("nothing became read-only")
	}
	if _, err := s.Compact(cut); err != nil {
		t.Fatal(err)
	}
	info, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Begin != cut {
		t.Fatalf("checkpoint Begin = %#x, want compacted begin %#x", info.Begin, cut)
	}
	s.Close()

	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatalf("recover with Begin=%#x: %v", info.Begin, err)
	}
	defer r.Close()
	if got := r.Log().BeginAddress(); got != cut {
		t.Fatalf("recovered begin = %#x, want %#x", got, cut)
	}
	rs := r.StartSession()
	defer rs.Close()
	for i := uint64(0); i < n; i++ {
		got, st := readU64(t, rs, key(i))
		if st != OK || got != i+10000 {
			t.Fatalf("recovered key %d = (%d, %v), want (%d, OK)", i, got, st, i+10000)
		}
	}
}

// TestCompactDeferredTruncationCatchesUp covers the checkpoint clamp:
// with a committed checkpoint whose Begin is low, a later compaction may
// advance begin but must hold the device truncate at the checkpoint's
// Begin (recovery still replays from there); the next checkpoint commits
// the new Begin and the deferred truncate catches up.
func TestCompactDeferredTruncationCatchesUp(t *testing.T) {
	dir := t.TempDir()
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	for i := uint64(0); i < 600; i++ {
		sess.Upsert(key(i), u64(i))
	}
	sess.CompletePending(true)
	sess.Close()

	info1, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// More garbage, then compact past the checkpointed Begin.
	sess = s.StartSession()
	for i := uint64(0); i < 600; i++ {
		sess.Upsert(key(i), u64(i+1))
	}
	sess.CompletePending(true)
	sess.Close()
	cut := s.Log().SafeReadOnlyAddress()
	if cut <= info1.Begin {
		t.Skip("nothing became read-only past the first checkpoint")
	}
	if _, err := s.Compact(cut); err != nil {
		t.Fatal(err)
	}
	if got := s.Log().BeginAddress(); got != cut {
		t.Fatalf("begin = %#x, want %#x", got, cut)
	}
	// Device truncation must be pinned at the committed Begin: recovery
	// from the first checkpoint replays the log from there.
	if got := s.Log().TruncatedUntil(); got > info1.Begin {
		t.Fatalf("device truncated to %#x past committed checkpoint Begin %#x", got, info1.Begin)
	}

	// A new checkpoint commits Begin=cut; the deferred truncate catches up.
	info2, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Begin != cut {
		t.Fatalf("second checkpoint Begin = %#x, want %#x", info2.Begin, cut)
	}
	// Device truncation is page-granular: the page holding Begin stays.
	if got, want := s.Log().TruncatedUntil(), cut&^(s.Log().PageSize()-1); got != want {
		t.Fatalf("deferred truncation did not catch up: watermark %#x, want %#x", got, want)
	}
}

// TestBackgroundCompactionPolicy exercises the size-triggered maintainer:
// once the stable region outgrows CompactionThreshold the store compacts
// on its own.
func TestBackgroundCompactionPolicy(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8, CompactionThreshold: 16 << 10})
	sess := s.StartSession()
	for i := uint64(0); i < 3000; i++ {
		sess.Upsert(key(i), u64(i))
	}
	sess.CompletePending(true)
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	sess.Park()
	defer sess.Unpark()

	if !testutil.Eventually(10*time.Second, func() bool {
		return s.Metrics().Compactions > 0
	}) {
		m := s.Metrics()
		t.Fatalf("maintainer never compacted (begin=%#x safeRO=%#x threshold=%d)",
			m.Log.BeginAddress, m.Log.SafeReadOnlyAddress, 16<<10)
	}
	if s.Log().BeginAddress() == 0 {
		t.Fatal("compaction ran but begin never advanced")
	}
}

// TestCompactCrashTorture arms seeded crash points against a workload
// that interleaves compactions with checkpoints: whatever the crash
// tears — mid-copy, mid-truncate, mid-checkpoint — recovery from the
// surviving media must reproduce the last committed snapshot exactly.
func TestCompactCrashTorture(t *testing.T) {
	testutil.CheckGoroutines(t)
	seeds := []int64{0xC0DE0001, 0xC0DE0002, 0xC0DE0003}
	points := 12
	if testing.Short() {
		points = 6
	}
	const minBudget, maxBudget = 8 << 10, 72 << 10

	var crashed, committed atomic.Int64
	t.Run("matrix", func(t *testing.T) {
		for _, seed := range seeds {
			for p := 0; p < points/len(seeds)+1; p++ {
				budget := int64(minBudget + p*(maxBudget-minBudget)*len(seeds)/points)
				name := fmt.Sprintf("seed=%x/crash@%dK", seed, budget>>10)
				seed, budget := seed, budget
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runCompactTortureCase(t, seed, budget, &crashed, &committed)
				})
			}
		}
	})
	if crashed.Load() == 0 {
		t.Error("no compaction torture case reached its crash point")
	}
	if committed.Load() == 0 {
		t.Error("no compaction torture case committed a checkpoint")
	}
}

func runCompactTortureCase(t *testing.T, seed, crashBudget int64, crashed, committed *atomic.Int64) {
	const (
		ops       = 2500
		keys      = 120
		ckptEvery = 400
	)
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	dir := t.TempDir()
	cfg := Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		IndexBuckets: 1 << 10, Device: faulty,
		ReadRetry:  retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
		WriteRetry: retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	faulty.CrashAfterBytes(crashBudget)

	mustDrain := func() Result {
		results, derr := sess.CompletePendingTimeout(10 * time.Second)
		if derr != nil {
			t.Fatalf("pending op hung instead of completing with an error: %v", derr)
		}
		if len(results) != 1 {
			t.Fatalf("drained %d results, want 1", len(results))
		}
		return results[0]
	}

	rng := rand.New(rand.NewSource(seed))
	model := map[uint64]uint64{}
	var snapshot map[uint64]uint64
	haveCkpt := false
	dead := false

	for i := 0; i < ops && !dead; i++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			v := rng.Uint64() >> 1
			if st, _ := sess.Upsert(key(k), u64(v)); st == OK {
				model[k] = v
			} else {
				dead = true
			}
		case 4, 5, 6:
			delta := uint64(rng.Intn(1000))
			st, _ := sess.RMW(key(k), u64(delta), nil)
			if st == Pending {
				st = mustDrain().Status
			}
			if st == OK {
				model[k] += delta
			} else {
				dead = true
			}
		case 7:
			switch st, _ := sess.Delete(key(k)); st {
			case OK, NotFound:
				delete(model, k)
			default:
				dead = true
			}
		default:
			out := make([]byte, 8)
			st, rerr := sess.Read(key(k), nil, out, nil)
			if rerr != nil {
				dead = true
				break
			}
			if st == Pending {
				st = mustDrain().Status
			}
			want, ok := model[k]
			switch {
			case st == Err:
				dead = true
			case ok && st == NotFound:
				t.Fatalf("op %d: acked key %d lost while the store was live", i, k)
			case !ok && st == OK:
				t.Fatalf("op %d: deleted key %d resurrected while the store was live", i, k)
			case ok && binary.LittleEndian.Uint64(out) != want:
				t.Fatalf("op %d: key %d = %d, want %d", i, k, binary.LittleEndian.Uint64(out), want)
			}
		}

		if !dead && (i+1)%ckptEvery == 0 {
			// Alternate compact and checkpoint so crash points land inside
			// both, including the deferred-truncation interplay between
			// them. Both need the session released.
			sess.Close()
			if cut := s.Log().SafeReadOnlyAddress(); cut > s.Log().BeginAddress() {
				if _, cerr := s.Compact(cut); cerr != nil {
					dead = true // crash landed inside the compaction
				}
			}
			if !dead {
				if _, cerr := s.Checkpoint(dir); cerr != nil {
					dead = true
				} else {
					snapshot = maps.Clone(model)
					haveCkpt = true
				}
			}
			sess = s.StartSession()
		}
	}

	if _, derr := sess.CompletePendingTimeout(10 * time.Second); derr != nil {
		t.Fatalf("post-workload drain hung: %v", derr)
	}
	sess.Close()
	s.Close()
	if dead {
		crashed.Add(1)
	}

	rcfg := cfg
	rcfg.Device = mem
	if !haveCkpt {
		if r, rerr := Recover(rcfg, dir); rerr == nil {
			r.Close()
			t.Fatal("Recover succeeded with no committed checkpoint")
		}
		return
	}
	committed.Add(1)

	r, err := Recover(rcfg, dir)
	if err != nil {
		t.Fatalf("recovery after crash@%d: %v", crashBudget, err)
	}
	defer r.Close()
	rs := r.StartSession()
	defer rs.Close()
	for k := uint64(0); k < keys; k++ {
		out := make([]byte, 8)
		st, rerr := rs.Read(key(k), nil, out, nil)
		if rerr != nil {
			t.Fatalf("recovered read of key %d: %v", k, rerr)
		}
		if st == Pending {
			results, derr := rs.CompletePendingTimeout(10 * time.Second)
			if derr != nil || len(results) != 1 {
				t.Fatalf("recovered read of key %d stalled: %v (%d results)", k, derr, len(results))
			}
			if results[0].Err != nil {
				t.Fatalf("recovered read of key %d: %v", k, results[0].Err)
			}
			st = results[0].Status
		}
		want, ok := snapshot[k]
		switch {
		case ok && st != OK:
			t.Errorf("committed key %d lost after recovery: status %v, want value %d", k, st, want)
		case ok && binary.LittleEndian.Uint64(out) != want:
			t.Errorf("committed key %d = %d after recovery, want %d", k, binary.LittleEndian.Uint64(out), want)
		case !ok && st != NotFound:
			t.Errorf("key %d resurrected past t2: status %v, want NotFound", k, st)
		}
	}
}

// blobValue is key i's value in version v: size bytes, every 8-byte word
// stamped with (i, v), so a value delivered for the wrong key or version
// — or overwritten by a reused buffer — cannot pass for the right one.
func blobValue(i, v uint64, size int) []byte {
	b := make([]byte, size)
	for off := 0; off+8 <= size; off += 8 {
		binary.LittleEndian.PutUint64(b[off:], i<<32|v)
	}
	return b
}

// checkBlobs reads every key back and requires want(i)'s value.
func checkBlobs(t *testing.T, sess *Session, n uint64, size int, want func(i uint64) uint64) {
	t.Helper()
	out := make([]byte, size)
	for i := uint64(0); i < n; i++ {
		st, err := sess.Read(key(i), nil, out, nil)
		if err != nil {
			t.Fatalf("read key %d: %v", i, err)
		}
		if st == Pending {
			res := sess.CompletePending(true)
			if len(res) != 1 {
				t.Fatalf("read key %d: %d results, want 1", i, len(res))
			}
			st = res[0].Status
		}
		if v := want(i); st != OK || !bytes.Equal(out, blobValue(i, v, size)) {
			t.Fatalf("key %d = (%x…, %v), want version %d", i, out[:8], st, v)
		}
	}
}

// TestCompactAllocatesPerKeyNotPerValue bounds compaction's heap use: the
// fold keeps one log address per live key and the copy phase reuses one
// page of scratch, so the bytes allocated across a pass over 10 k live
// 4 KiB values stay far below the 40 MiB of values it copies forward.
func TestCompactAllocatesPerKeyNotPerValue(t *testing.T) {
	const (
		n    = 10_000
		size = 4 << 10
	)
	s, mem := openTestStore(t, Config{Ops: BlobOps{}, PageBits: 16, IndexBuckets: 1 << 13})
	sess := s.StartSession()
	defer sess.Close()
	for i := uint64(0); i < n; i++ {
		if st, err := sess.Upsert(key(i), blobValue(i, 1, size)); st != OK {
			t.Fatalf("upsert key %d: %v %v", i, st, err)
		}
	}
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	cut := s.Log().SafeReadOnlyAddress()
	sess.Park()

	var before, after runtime.MemStats
	runtime.GC()
	written := mem.Stats().BytesWritten
	runtime.ReadMemStats(&before)
	stats, err := s.Compact(cut)
	runtime.ReadMemStats(&after)
	written = mem.Stats().BytesWritten - written
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != n {
		t.Fatalf("copied %d records, want %d (every key is live)", stats.Copied, n)
	}
	liveBytes := uint64(n * size)
	alloc := after.TotalAlloc - before.TotalAlloc
	if !arena.OffHeap {
		// Arena blocks come from the Go heap here (a race build), the
		// simulated drive's extents among them: one per write, exactly
		// its size. They hold the device's contents, not compaction's.
		alloc -= written
	}
	if alloc >= liveBytes/8 {
		t.Fatalf("compaction allocated %d bytes for %d bytes of live values: it holds values, not addresses",
			alloc, liveBytes)
	} else {
		t.Logf("compaction allocated %d bytes for %d bytes of live values", alloc, liveBytes)
	}
	checkBlobs(t, sess, n, size, func(uint64) uint64 { return 1 })
}

// TestCompactCopiesWrapTheBuffer compacts a prefix whose live records are
// several times the log buffer, so the copy phase must wait for pages it
// appended to flush and evict. A copy phase that held a scan guard while
// appending would pin the epoch those waits need and hang here.
func TestCompactCopiesWrapTheBuffer(t *testing.T) {
	const (
		n    = 400
		size = 512
	)
	s, _ := openTestStore(t, Config{Ops: BlobOps{}, BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	for i := uint64(0); i < n; i++ {
		if st, err := sess.Upsert(key(i), blobValue(i, 1, size)); st != OK {
			t.Fatalf("upsert key %d: %v %v", i, st, err)
		}
	}
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	cut := s.Log().SafeReadOnlyAddress()
	sess.Park()
	stats, err := s.Compact(cut)
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	buffer := s.Log().PageSize() * 8
	if stats.CopiedBytes < 4*buffer {
		t.Fatalf("copied %d bytes, want at least 4 buffers (%d bytes) to wrap the log", stats.CopiedBytes, 4*buffer)
	}
	checkBlobs(t, sess, n, size, func(uint64) uint64 { return 1 })
}

// TestCompactDescentOwnsValue makes candidates verify their chains on the
// device: one-bit tags over a tiny index thread every key's chain through
// other keys' records above the cut, and those records are evicted, so
// the candidates descend asynchronously while the copy phase moves on and
// reuses its page arena. Each descent must copy forward its own value.
func TestCompactDescentOwnsValue(t *testing.T) {
	const (
		n    = 200
		size = 256
	)
	s, _ := openTestStore(t, Config{Ops: BlobOps{}, BufferPages: 8, TagBits: 1, IndexBuckets: 16})
	sess := s.StartSession()
	defer sess.Close()
	put := func(i, v uint64) {
		t.Helper()
		if st, err := sess.Upsert(key(i), blobValue(i, v, size)); st != OK {
			t.Fatalf("upsert key %d: %v %v", i, st, err)
		}
	}
	// Below the cut: keys [0, n), spanning many pages, made read-only so
	// the next versions append instead of updating in place.
	for i := uint64(0); i < n; i++ {
		put(i, 1)
	}
	cut := s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	// Above the cut: new versions of the even keys (stale candidates) and
	// more than a buffer of other keys, so the span above the cut leaves
	// memory.
	for i := uint64(0); i < n; i += 2 {
		put(i, 2)
	}
	for i := uint64(n); i < 3*n; i++ {
		put(i, 1)
	}
	s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	if s.Log().HeadAddress() <= cut {
		t.Fatalf("head %#x never passed the cut %#x: nothing above it was evicted", s.Log().HeadAddress(), cut)
	}
	sess.Park()
	issued := s.Metrics().PendingIssued
	stats, err := s.Compact(cut)
	descents := s.Metrics().PendingIssued - issued
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compact: %d copied, %d skipped, %d device reads", stats.Copied, stats.Skipped, descents)
	if descents == 0 {
		t.Fatal("no candidate descended to the device")
	}
	if stats.Copied != n/2 || stats.Skipped != n/2 {
		t.Fatalf("copied %d / skipped %d, want %d / %d", stats.Copied, stats.Skipped, n/2, n/2)
	}
	checkBlobs(t, sess, 3*n, size, func(i uint64) uint64 {
		if i < n && i%2 == 0 {
			return 2
		}
		return 1
	})
}
