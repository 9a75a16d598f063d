package faster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/device"
	"repro/internal/hlog"
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
// pass reuses one page of scratch and keeps nothing per key, so the bytes
// allocated across a pass over 10 k live 4 KiB values stay far below the
// 40 MiB of values it copies forward.
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

// varKey is a variable-length key, so keys of many sizes share pages and
// a length or offset slip shows as a mismatch.
func varKey(i int) []byte {
	return []byte(fmt.Sprintf("var-%d-%s", i, strings.Repeat("x", i%23)))
}

// TestCompactManyKeysMatchesReference compacts a prefix of 150 k keys of
// many lengths written in several versions, with tombstones and keys
// re-added after deletion. Some keys are then superseded or deleted above
// the cut. The copied count must equal what a reference map predicts,
// every other non-tombstone record in the prefix must count as skipped,
// and every key must read back as the reference says once the prefix is
// gone: a live record the compaction misses is truncated away.
func TestCompactManyKeysMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large compaction")
	}
	s, _ := openTestStore(t, Config{PageBits: 16, BufferPages: 8, IndexBuckets: 1 << 16})
	sess := s.StartSession()
	defer sess.Close()

	const n = 150_000
	ref := make(map[int]uint64, n) // absent: deleted
	upsert := func(i int, v uint64) {
		if st, err := sess.Upsert(varKey(i), u64(v)); st != OK || err != nil {
			t.Fatalf("upsert %d: %v %v", i, st, err)
		}
		ref[i] = v
	}
	del := func(i int) {
		if st, err := sess.Delete(varKey(i)); err != nil || (st != OK && st != NotFound) {
			t.Fatalf("delete %d: %v %v", i, st, err)
		}
		delete(ref, i)
	}
	// Each key gets all its versions before the next key starts.
	for i := 0; i < n; i++ {
		for round := uint64(0); round < 3; round++ {
			switch {
			case round == 1 && i%7 == 0:
				del(i) // deleted in the middle version...
			case round == 2 && i%7 == 0 && i%14 != 0:
				// ...and stays deleted, or is re-added here.
			default:
				upsert(i, uint64(i)*10+round)
			}
		}
		if i%11 == 0 {
			del(i) // newest version in the prefix is a tombstone
		}
	}
	sess.CompletePending(true)

	// Everything so far is the prefix. Push it below the safe read-only
	// address with filler keys the prefix never saw. Skipped counts
	// records, so count the prefix's (in-place updates made fewer records
	// than upserts).
	cut := s.Log().TailAddress()
	records := 0
	if err := s.Scan(ScanOptions{To: cut}, func(r ScanRecord) bool {
		if !r.Tombstone {
			records++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for f := 0; s.Log().SafeReadOnlyAddress() < cut; f++ {
		if st, _ := sess.Upsert(varKey(n+f), u64(1)); st != OK {
			t.Fatal("filler upsert failed")
		}
	}
	atCut := make(map[int]bool, len(ref))
	for i := range ref {
		atCut[i] = true
	}

	// Above the cut: supersede some live keys, delete others.
	for i := 0; i < n; i += 13 {
		upsert(i, 1<<40+uint64(i))
	}
	for i := 0; i < n; i += 17 {
		del(i)
	}
	sess.CompletePending(true)
	wantCopied := 0
	for i := range atCut {
		if i%13 != 0 && i%17 != 0 {
			wantCopied++
		}
	}
	wantSkipped := records - wantCopied

	sess.Park()
	stats, err := s.Compact(cut)
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != wantCopied || stats.Skipped != wantSkipped {
		t.Fatalf("copied %d skipped %d, reference predicts %d and %d",
			stats.Copied, stats.Skipped, wantCopied, wantSkipped)
	}

	for i := 0; i < n; i++ {
		got, st := readU64(t, sess, varKey(i))
		want, live := ref[i]
		switch {
		case live && (st != OK || got != want):
			t.Fatalf("key %d = (%d, %v), want (%d, OK)", i, got, st, want)
		case !live && st != NotFound:
			t.Fatalf("deleted key %d = (%d, %v), want NotFound", i, got, st)
		}
	}
}

// TestCompactReadsPrefixOnce compacts an evicted prefix of 100 k keys with
// no other traffic: every record is its key's only version, so each is
// judged live from the index alone, and the device bytes read during
// Compact are the prefix itself, read once.
func TestCompactReadsPrefixOnce(t *testing.T) {
	s, mem := openTestStore(t, Config{PageBits: 16, BufferPages: 8, IndexBuckets: 1 << 15})
	sess := s.StartSession()
	defer sess.Close()
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		if st, err := sess.Upsert(key(i), u64(i)); st != OK {
			t.Fatalf("upsert key %d: %v %v", i, st, err)
		}
	}
	cut := s.Log().ShiftReadOnlyToTail()
	for f := uint64(n); s.Log().HeadAddress() < cut; f++ {
		if st, err := sess.Upsert(key(f), u64(f)); st != OK {
			t.Fatalf("filler upsert: %v %v", st, err)
		}
	}
	begin := s.Log().BeginAddress()
	sess.Park()
	read := mem.Stats().BytesRead
	stats, err := s.Compact(cut)
	read = mem.Stats().BytesRead - read
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != n || stats.Skipped != 0 {
		t.Fatalf("copied %d skipped %d, want %d and 0", stats.Copied, stats.Skipped, n)
	}
	prefix := cut - begin
	t.Logf("read %d device bytes for a %d-byte prefix (%.2fx)", read, prefix, float64(read)/float64(prefix))
	if 100*read > 105*prefix {
		t.Fatalf("compaction read %d device bytes for a %d-byte prefix: more than one pass", read, prefix)
	}
	for i := uint64(0); i < n; i += 997 {
		if got, st := readU64(t, sess, key(i)); st != OK || got != i {
			t.Fatalf("key %d = (%d, %v), want (%d, OK)", i, got, st, i)
		}
	}
}

// liveWriter drives one TestCompactLookupLiveness case: it writes through a
// session and keeps the reference state each key should read back.
type liveWriter struct {
	t    *testing.T
	s    *Store
	sess *Session
	ref  map[uint64]uint64 // absent: deleted or never written
	keys map[uint64]bool   // every key written
}

func (w *liveWriter) upsert(i, v uint64) {
	w.t.Helper()
	if st, err := w.sess.Upsert(key(i), u64(v)); st != OK {
		w.t.Fatalf("upsert key %d: %v %v", i, st, err)
	}
	w.ref[i], w.keys[i] = v, true
}

func (w *liveWriter) del(i uint64) {
	w.t.Helper()
	if st, err := w.sess.Delete(key(i)); err != nil || (st != OK && st != NotFound) {
		w.t.Fatalf("delete key %d: %v %v", i, st, err)
	}
	delete(w.ref, i)
	w.keys[i] = true
}

// seal makes everything written so far read-only, so the next version of
// any key appends a record instead of updating in place.
func (w *liveWriter) seal() hlog.Address {
	a := w.s.Log().ShiftReadOnlyToTail()
	w.sess.Refresh()
	return a
}

// TestCompactLookupLiveness pins the lookup rule: a record in the prefix is
// copied exactly when its key's chain reaches it before any newer version
// of the key, and every other non-tombstone record counts as skipped. Each
// case runs with the whole log resident and with all of it evicted, so
// both the in-memory check and the device descent decide.
func TestCompactLookupLiveness(t *testing.T) {
	cases := []struct {
		name            string
		cfg             Config
		prefix, above   func(w *liveWriter)
		copied, skipped int
		err             error
	}{{
		name: "versions in the prefix",
		prefix: func(w *liveWriter) {
			for v := uint64(1); v <= 4; v++ {
				for i := uint64(0); i < 10; i++ {
					w.upsert(i, v)
				}
				w.seal()
			}
		},
		copied: 10, skipped: 30,
	}, {
		name: "newest prefix version is a tombstone",
		prefix: func(w *liveWriter) {
			for v := uint64(1); v <= 3; v++ {
				for i := uint64(0); i < 10; i++ {
					w.upsert(i, v)
				}
				w.seal()
			}
			for i := uint64(0); i < 10; i += 2 {
				w.del(i)
			}
			w.seal()
			for i := uint64(0); i < 10; i += 4 {
				w.upsert(i, 9) // re-added after the delete
			}
		},
		copied: 5 + 3, skipped: 30 - 5,
	}, {
		name: "newest version above the cut",
		prefix: func(w *liveWriter) {
			for v := uint64(1); v <= 2; v++ {
				for i := uint64(0); i < 10; i++ {
					w.upsert(i, v)
				}
				w.seal()
			}
		},
		above: func(w *liveWriter) {
			for i := uint64(0); i < 10; i += 2 {
				w.upsert(i, 3)
			}
			for i := uint64(0); i < 10; i += 3 {
				w.del(i)
			}
		},
		copied: 3, skipped: 20 - 3, // keys 1, 5 and 7 live on at their prefix version
	}, {
		name: "two keys on one entry",
		cfg:  Config{TagBits: 1, IndexBuckets: 16},
		prefix: func(w *liveWriter) {
			a := uint64(1)
			w.upsert(a, 1)
			b := w.sharer(a)
			w.upsert(b, 1)
			w.seal()
			w.upsert(a, 2)
			w.seal()
			w.upsert(b, 2)
			w.upsert(a, 3)
			w.seal()
		},
		above: func(w *liveWriter) {
			for b := range w.keys {
				if b != 1 {
					w.upsert(b, 3)
				}
			}
		},
		copied: 1, skipped: 4,
	}, {
		name: "CRDT delta after live records",
		cfg:  Config{CRDT: true},
		prefix: func(w *liveWriter) {
			// More than a page of live records, so copies are made
			// before the scan meets the delta.
			for i := uint64(0); i < 300; i++ {
				w.upsert(i, 1)
			}
			w.seal()
			k := key(5)
			raw := chainHead(w.t, w.s, k)
			if st, err := w.sess.rmwAppendDelta(hashKey(k), k, u64(3), raw, raw); st != statusDone || err != nil {
				w.t.Fatalf("append delta: %v %v", st, err)
			}
			w.ref[5] = 4
		},
		err: errCompactDelta,
	}, {
		// A delta above the cut supersedes nothing: the prefix version
		// stays live beneath it, so compaction may neither skip nor copy
		// it.
		name: "CRDT delta above the cut",
		cfg:  Config{CRDT: true},
		prefix: func(w *liveWriter) {
			for i := uint64(0); i < 10; i++ {
				w.upsert(i, 1)
			}
		},
		above: func(w *liveWriter) {
			k := key(5)
			raw := chainHead(w.t, w.s, k)
			if st, err := w.sess.rmwAppendDelta(hashKey(k), k, u64(3), raw, raw); st != statusDone || err != nil {
				w.t.Fatalf("append delta: %v %v", st, err)
			}
			w.ref[5] = 4
		},
		err: errCompactDelta,
	}}
	for _, tc := range cases {
		for _, evict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/evicted=%v", tc.name, evict), func(t *testing.T) {
				s, _ := openTestStore(t, tc.cfg)
				sess := s.StartSession()
				defer sess.Close()
				w := &liveWriter{t: t, s: s, sess: sess, ref: map[uint64]uint64{}, keys: map[uint64]bool{}}
				begin := s.Log().BeginAddress()
				tc.prefix(w)
				cut := w.seal()
				if tc.above != nil {
					tc.above(w)
				}
				top := w.seal()
				if evict {
					for f := uint64(1 << 20); s.Log().HeadAddress() < top; f++ {
						if st, err := sess.Upsert(key(f), u64(f)); st != OK {
							t.Fatalf("filler upsert: %v %v", st, err)
						}
					}
				} else if s.Log().HeadAddress() > begin {
					t.Fatalf("head %#x passed begin %#x: the log did not stay resident", s.Log().HeadAddress(), begin)
				}
				sess.Park()
				issued := s.Metrics().PendingIssued
				stats, err := s.Compact(cut)
				descents := s.Metrics().PendingIssued - issued
				sess.Unpark()
				if evict != (descents > 0) && tc.err == nil {
					t.Fatalf("%d descents with evicted=%v: the case did not take the path it names", descents, evict)
				}
				if tc.err != nil {
					if !errors.Is(err, tc.err) {
						t.Fatalf("compact err = %v, want %v", err, tc.err)
					}
					if got := s.Log().BeginAddress(); got != begin {
						t.Fatalf("begin moved to %#x after an aborted compaction, want %#x", got, begin)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if stats.Copied != tc.copied || stats.Skipped != tc.skipped {
						t.Fatalf("copied %d skipped %d, want %d and %d", stats.Copied, stats.Skipped, tc.copied, tc.skipped)
					}
				}
				for i := range w.keys {
					got, st := readU64(t, sess, key(i))
					want, live := w.ref[i]
					switch {
					case live && (st != OK || got != want):
						t.Fatalf("key %d = (%d, %v), want (%d, OK)", i, got, st, want)
					case !live && st != NotFound:
						t.Fatalf("deleted key %d = (%d, %v), want NotFound", i, got, st)
					}
				}
			})
		}
	}
}

// TestCompactRefusesColdCRDTDelta: a cold CRDT RMW appends a delta above
// its key's base on storage instead of fetching the base. Compacting past
// the base must refuse rather than count the delta as a newer version:
// the base would be truncated and the key would read the delta alone (1
// instead of 11).
func TestCompactRefusesColdCRDTDelta(t *testing.T) {
	s, _ := openTestStore(t, Config{CRDT: true, PageBits: 12, BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	k := key(7)
	if st, err := sess.Upsert(k, u64(10)); st != OK || err != nil {
		t.Fatalf("upsert: %v %v", st, err)
	}
	begin := s.Log().BeginAddress()
	for i := uint64(0); i < 3000; i++ {
		if st, err := sess.Upsert(key(1000+i), u64(i)); st != OK || err != nil {
			t.Fatalf("filler upsert %d: %v %v", i, st, err)
		}
	}
	cut := s.Log().SafeReadOnlyAddress() &^ (s.Log().PageSize() - 1)
	if cut <= begin+s.Log().PageSize() || s.Log().HeadAddress() <= begin+s.Log().PageSize() {
		t.Fatalf("cut %#x, head %#x: the base at the first page was not evicted below the cut", cut, s.Log().HeadAddress())
	}
	if st, err := sess.RMW(k, u64(1), nil); st != OK || err != nil {
		t.Fatalf("cold RMW: %v %v, want OK (a delta needs no read)", st, err)
	}
	if d := s.Stats().DeltaRecords; d != 1 {
		t.Fatalf("cold RMW appended %d deltas, want 1", d)
	}
	sess.Park()
	_, err := s.Compact(cut)
	sess.Unpark()
	if !errors.Is(err, errCompactDelta) {
		t.Fatalf("compact err = %v, want %v", err, errCompactDelta)
	}
	if got := s.Log().BeginAddress(); got != begin {
		t.Fatalf("begin moved to %#x after a refused compaction, want %#x", got, begin)
	}
	if got, st := readU64(t, sess, k); st != OK || got != 11 {
		t.Fatalf("after refused compaction: (%d, %v), want (11, OK)", got, st)
	}
}

// sharer returns a key other than key(i) whose hash maps to key(i)'s index
// entry, so the two keys' versions interleave on one chain. key(i) must be
// the only key written so far.
func (w *liveWriter) sharer(i uint64) uint64 {
	w.t.Helper()
	head := chainHead(w.t, w.s, key(i))
	for j := i + 1; j < 1<<20; j++ {
		if _, a, ok := w.s.idx.FindEntry(hashKey(key(j))); ok && a == head {
			return j
		}
	}
	w.t.Fatalf("no key shares key %d's index entry", i)
	return 0
}

// TestCompactReportsAppendFailure makes a compaction copy fail: every
// device write reaching past the tail Compact starts from fails
// permanently, so once the copies wrap the buffer an Allocate meets the
// poisoned tail. Compact must report that failure, leave the prefix in
// place, and every key must still read its value.
func TestCompactReportsAppendFailure(t *testing.T) {
	const n = 6000
	s, faulty := openFaultyStore(t)
	sess := s.StartSession()
	defer sess.Close()
	spill(t, s, sess, n)
	cut := s.Log().ShiftReadOnlyToTail()
	sess.Refresh()
	tail := s.Log().TailAddress()
	faulty.SetHook(func(op device.Op, off uint64, length int) error {
		if op == device.OpWrite && off+uint64(length) > tail {
			return device.ErrInjectedPermanent
		}
		return nil
	})
	begin := s.Log().BeginAddress()
	sess.Park()
	stats, err := s.Compact(cut)
	sess.Unpark()
	t.Logf("compact: %d copied, %d skipped: %v", stats.Copied, stats.Skipped, err)
	if !errors.Is(err, hlog.ErrPoisoned) && !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact = %v, want an error wrapping hlog.ErrPoisoned or ErrReadOnly", err)
	}
	if got := s.Log().BeginAddress(); got != begin {
		t.Fatalf("begin moved %#x -> %#x after a failed compaction", begin, got)
	}
	for i := uint64(0); i < n; i++ {
		if got, st := readU64(t, sess, key(i)); st != OK || got != i+1 {
			t.Fatalf("key %d = %d %v, want %d OK", i, got, st, i+1)
		}
	}
}
