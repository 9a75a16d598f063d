package faster

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/retry"
	"repro/internal/testutil"
)

// Crash/torn-write torture harness.
//
// Each case runs a seeded workload of Upserts, RMWs, Deletes and verified
// Reads against a Faulty-wrapped Mem device with a crash point armed at a
// byte budget (CrashAfterBytes): the write crossing the budget is torn at
// the boundary and the device dies permanently, exactly like a power cut
// mid-sector-train. Half the cases additionally sprinkle seeded transient
// read/write faults with torn-write prefixes, so the bounded-retry paths
// run under the same scrutiny.
//
// The workload checkpoints periodically and clones its shadow map at every
// checkpoint that COMMITS. Whatever happens afterwards — crash mid-append,
// mid-flush, mid-checkpoint, or no crash at all — recovery from the
// surviving media must reproduce the last committed snapshot exactly:
//
//   - every key in the snapshot reads back with its snapshot value
//     (no acknowledged-then-committed operation is lost),
//   - every key absent from the snapshot reads NotFound
//     (nothing past t2 is resurrected, deletes stay deleted — §6.5),
//   - the recovered tail sits at the committed t2 rounded up to a page,
//   - and no pending operation may hang on the dead device: every drain
//     runs under a deadline (the graceful-degradation guarantee).

// tortureTotalPoints returns how many crash points the matrix spreads
// across its seeds: FASTER_TORTURE_POINTS when set (the `make torture`
// knob), else 100 — the acceptance bar — or a trimmed 16 under -short.
func tortureTotalPoints(t *testing.T) int {
	if v := os.Getenv("FASTER_TORTURE_POINTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FASTER_TORTURE_POINTS %q: %v", v, err)
		}
		return n
	}
	if testing.Short() {
		return 16
	}
	return 100
}

func TestCrashRecoveryTorture(t *testing.T) {
	// Every store, session and device in the matrix must be fully torn
	// down by the end: a drain that strands a flush-retry timer or a
	// device callback goroutine is as much a failure as lost data.
	testutil.CheckGoroutines(t)
	seeds := []int64{0x5EED0001, 0x5EED0002, 0x5EED0003, 0x5EED0004}
	perSeed := (tortureTotalPoints(t) + len(seeds) - 1) / len(seeds)

	// Crash budgets sweep the whole log lifetime: from before the first
	// checkpoint can commit (~8 KB of appends) to past the workload's
	// total write volume (so some cases never crash and verify the plain
	// close/recover path on the same harness).
	const minBudget, maxBudget = 4 << 10, 96 << 10

	var crashed, committed atomic.Int64
	t.Run("matrix", func(t *testing.T) {
		for _, seed := range seeds {
			for p := 0; p < perSeed; p++ {
				budget := int64(minBudget + p*(maxBudget-minBudget)/perSeed)
				noisy := p%2 == 1 // odd points add transient fault noise
				name := fmt.Sprintf("seed=%x/crash@%dK/noisy=%v", seed, budget>>10, noisy)
				seed, budget := seed, budget
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runTortureCase(t, seed, budget, noisy, &crashed, &committed)
				})
			}
		}
	})

	// The matrix is only a torture test if it actually tortured: some
	// cases must have died at their crash point, and some must have had a
	// committed checkpoint to recover.
	if crashed.Load() == 0 {
		t.Error("no torture case reached its crash point; budgets are too large")
	}
	if committed.Load() == 0 {
		t.Error("no torture case committed a checkpoint; budgets are too small")
	}
}

func runTortureCase(t *testing.T, seed, crashBudget int64, noisy bool, crashed, committed *atomic.Int64) {
	const (
		tortureOps  = 3000
		tortureKeys = 160
		ckptEvery   = 500
	)

	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	dir := t.TempDir()
	cfg := Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		IndexBuckets: 1 << 10, Device: faulty,
		// The read cache stays warm across every checkpoint in the matrix:
		// checkpoints must map cache-tagged index entries back to their
		// underlying addresses, and recovery must never trust a cache
		// address from a persisted image (the cache is volatile).
		ReadCacheBytes: 8 << 10,
		ReadRetry:      retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
		WriteRetry:     retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()

	faulty.CrashAfterBytes(crashBudget)
	if noisy {
		faulty.TornWrites(true)
		faulty.SeedFaults(uint64(seed), 0.01, 0.01)
	}

	// mustDrain completes the single outstanding pending op. A hang here
	// is itself an invariant violation: faults must surface as classified
	// completions, never as a stall.
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
	model := map[uint64]uint64{}   // acked state, updated only on OK
	var snapshot map[uint64]uint64 // model at the last committed checkpoint
	var lastInfo CheckpointInfo
	haveCkpt := false
	dead := false

	for i := 0; i < tortureOps && !dead; i++ {
		k := uint64(rng.Intn(tortureKeys))
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // blind upsert
			v := rng.Uint64() >> 1
			if st, _ := sess.Upsert(key(k), u64(v)); st == OK {
				model[k] = v
			} else {
				dead = true
			}
		case 4, 5, 6: // read-modify-write: add
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
		case 7: // delete
			switch st, _ := sess.Delete(key(k)); st {
			case OK, NotFound:
				delete(model, k)
			default:
				dead = true
			}
		default: // read, checked against the live model
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
				dead = true // device fault surfaced; state is untouched
			case ok && st == NotFound:
				t.Fatalf("op %d: acked key %d lost while the store was live", i, k)
			case !ok && st == OK:
				t.Fatalf("op %d: deleted key %d resurrected while the store was live", i, k)
			case ok && binary.LittleEndian.Uint64(out) != want:
				t.Fatalf("op %d: key %d = %d, want %d", i, k, binary.LittleEndian.Uint64(out), want)
			}
		}

		if !dead && (i+1)%ckptEvery == 0 {
			// An idle session pins the epoch and the checkpoint's safe-RO
			// shift would wait on it forever, so drop the session around
			// the checkpoint (its pendings are already drained).
			sess.Close()
			info, cerr := s.Checkpoint(dir)
			sess = s.StartSession()
			if cerr != nil {
				dead = true // crash landed inside the checkpoint
				continue
			}
			snapshot = maps.Clone(model)
			lastInfo = info
			haveCkpt = true
		}
	}

	// Tear the store down. After a crash the device is permanently dead,
	// so the drain and close may report errors — but they must return.
	if _, derr := sess.CompletePendingTimeout(10 * time.Second); derr != nil {
		t.Fatalf("post-workload drain hung: %v", derr)
	}
	sess.Close()
	s.Close()
	if dead {
		crashed.Add(1)
	}

	// Recover from the surviving media: a fresh handle on the same Mem,
	// as after a reboot.
	rcfg := cfg
	rcfg.Device = mem
	if !haveCkpt {
		// Crash before any commit: there is nothing to recover, and
		// recovery must say so rather than conjure a store.
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
	if got := r.Log().TailAddress(); got != pageUp(lastInfo.T2) {
		t.Fatalf("recovered tail = %#x, want committed t2 rounded up %#x", got, pageUp(lastInfo.T2))
	}

	rs := r.StartSession()
	defer rs.Close()
	for k := uint64(0); k < tortureKeys; k++ {
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

// TestShardedCrashTorture is the per-shard crash matrix: a stamped
// client scatters its serial stream over a 4-shard store (per-key
// counters, seeded duplicate re-deliveries), sharded checkpoints commit
// generations mid-stream, and then one seeded victim shard's device is
// armed to die on its next write — which lands inside the next
// checkpoint's flush, killing that shard mid-checkpoint. The manifest
// must not advance over the dead shard's generation, the siblings must
// keep serving while the victim alone fails, and recovery over the
// surviving media must restore the last committed generation's
// consistent cut on every shard: the re-bound connection frontier is
// exactly the serial cut of that generation, and resubmitting
// everything above it yields every delta applied exactly once.
func TestShardedCrashTorture(t *testing.T) {
	testutil.CheckGoroutines(t)
	seeds := exactlyOnceSeeds(t)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runShardedCrashCase(t, int64(seed)*7919+17)
		})
	}
}

func runShardedCrashCase(t *testing.T, seed int64) {
	const (
		shards    = 4
		totalOps  = 60
		keySpace  = 16
		killAfter = totalOps / 2
	)
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	mems := make([]*device.Mem, shards)
	faulties := make([]*device.Faulty, shards)
	for i := range mems {
		mems[i] = device.NewMem(device.MemConfig{})
		faulties[i] = device.NewFaulty(mems[i])
	}
	defer func() {
		for _, m := range mems {
			m.Close()
		}
	}()
	base := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets:   1 << 9,
		ReadCacheBytes: 8 << 10,
		ReadRetry:      retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
		WriteRetry:     retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond}}
	cfg := ShardedConfig{Shards: shards, Base: base,
		NewDevice: func(i int) device.Device { return faulties[i] }}
	ss, err := OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fixed schedule: serial i targets keys[i] with deltas[i], so the
	// post-crash retry resends byte-identical operations and the final
	// per-key sums are computable up front.
	keys := make([]uint64, totalOps+1)
	deltas := make([]uint64, totalOps+1)
	want := map[uint64]uint64{}
	for i := 1; i <= totalOps; i++ {
		keys[i] = uint64(rng.Intn(keySpace) + 1)
		deltas[i] = uint64(rng.Intn(9) + 1)
		want[keys[i]] += deltas[i]
	}
	// The victim must own at least one scheduled key, or no write ever
	// reaches its device and there is nothing to kill mid-checkpoint.
	owners := map[int]bool{}
	for i := 1; i <= totalOps; i++ {
		owners[ss.ShardFor(key(keys[i]))] = true
	}
	victims := make([]int, 0, shards)
	for i := 0; i < shards; i++ {
		if owners[i] {
			victims = append(victims, i)
		}
	}
	victim := victims[int(seed)%len(victims)]

	sess := ss.StartSession()
	tok, _, _, err := ss.BindSession("torture-client")
	if err != nil {
		t.Fatal(err)
	}

	drain := func() Result {
		results, derr := sess.CompletePendingTimeout(10 * time.Second)
		if derr != nil {
			t.Fatalf("pending op hung instead of completing: %v", derr)
		}
		if len(results) != 1 {
			t.Fatalf("drained %d results, want 1", len(results))
		}
		return results[0]
	}
	submit := func(serial uint64) {
		k := key(keys[serial])
		v, _ := stamped(tok, ss.ShardFor(k), serial, func() []byte {
			st, rerr := sess.RMW(k, u64(deltas[serial]), nil)
			if st == Pending {
				res := drain()
				st, rerr = res.Status, res.Err
			}
			if st != OK {
				t.Fatalf("serial %d: rmw failed: %v %v", serial, st, rerr)
			}
			return []byte("ACK")
		})
		// A re-delivered serial is Replay while it is the newest on its
		// shard, Stale once a later serial has landed there.
		if v != SerialApply && v != SerialReplay && v != SerialStale {
			t.Fatalf("serial %d: verdict %v", serial, v)
		}
	}

	var (
		clientAcked   uint64
		checkpoints   int
		lastCkptAcked uint64
		victimTouched bool
	)
	for clientAcked < totalOps {
		next := clientAcked + 1
		submit(next)
		clientAcked = next
		if ss.ShardFor(key(keys[next])) == victim {
			victimTouched = true
		}
		if rng.Intn(10) == 0 {
			submit(next) // duplicate re-delivery
		}
		if clientAcked >= killAfter && checkpoints > 0 && victimTouched {
			break // go kill the victim mid-checkpoint
		}
		if rng.Intn(8) == 0 {
			if _, err := ss.Checkpoint(dir); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			checkpoints++
			lastCkptAcked = clientAcked
			victimTouched = false
		}
	}
	if clientAcked >= totalOps {
		t.Fatalf("schedule never reached its kill point (checkpoints=%d)", checkpoints)
	}

	// Arm the victim: its very next device write tears and the device
	// dies — and the next write is the checkpoint's flush of the
	// victim's unflushed tail, so the shard dies mid-checkpoint.
	faulties[victim].CrashAfterBytes(1)
	if _, err := ss.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint committed its manifest over a dead shard")
	}

	// Siblings keep serving: one probe key per healthy shard must accept
	// a write and read it back; the victim's probe must fail alone.
	probes := make(map[int]uint64)
	for j := uint64(10000); len(probes) < shards && j < 12000; j++ {
		sh := ss.ShardFor(key(j))
		if _, ok := probes[sh]; !ok {
			probes[sh] = j
		}
	}
	for sh, pk := range probes {
		st, perr := sess.Upsert(key(pk), u64(pk))
		if sh == victim {
			if st == OK {
				// The write may be acknowledged in memory; durability is
				// gone but in-memory serving can legitimately continue
				// until the health ladder trips. Either outcome is fine
				// for the victim — the siblings are the assertion.
				continue
			}
			continue
		}
		if st != OK {
			t.Fatalf("healthy shard %d stopped serving after sibling death: %v %v", sh, st, perr)
		}
		got, gst := readShardedU64(t, sess, pk)
		if gst != OK || got != pk {
			t.Fatalf("healthy shard %d read = (%d, %v), want (%d, OK)", sh, got, gst, pk)
		}
	}

	if _, derr := sess.CompletePendingTimeout(10 * time.Second); derr != nil {
		t.Fatalf("post-kill drain hung: %v", derr)
	}
	sess.Close()
	ss.Close()

	// Recover from the surviving media: fresh handles on the same Mems.
	rcfg := cfg
	rcfg.NewDevice = func(i int) device.Device { return mems[i] }
	r, err := RecoverSharded(rcfg, dir)
	if err != nil {
		t.Fatalf("sharded recovery after mid-checkpoint kill: %v", err)
	}
	defer r.Close()

	rs := r.StartSession()
	defer rs.Close()
	rtok, frontier, _, err := r.BindSession("torture-client")
	if err != nil {
		t.Fatal(err)
	}
	// The dead shard's generation never committed, so recovery must land
	// on the last manifest that did — whose serial cut is exactly the
	// client's acked frontier at that checkpoint, on every shard.
	if frontier != lastCkptAcked {
		t.Fatalf("recovered frontier %d, want last committed cut %d (checkpoints=%d)",
			frontier, lastCkptAcked, checkpoints)
	}
	for serial := frontier + 1; serial <= totalOps; serial++ {
		k := key(keys[serial])
		v, _ := stamped(rtok, r.ShardFor(k), serial, func() []byte {
			st, rerr := rs.RMW(k, u64(deltas[serial]), nil)
			if st == Pending {
				results, derr := rs.CompletePendingTimeout(10 * time.Second)
				if derr != nil || len(results) != 1 {
					t.Fatalf("retry serial %d stalled: %v", serial, derr)
				}
				st, rerr = results[0].Status, results[0].Err
			}
			if st != OK {
				t.Fatalf("retry serial %d: %v %v", serial, st, rerr)
			}
			return []byte("ACK")
		})
		if v != SerialApply {
			t.Fatalf("retry serial %d: verdict %v, want Apply above frontier", serial, v)
		}
	}
	for k2 := uint64(1); k2 <= keySpace; k2++ {
		wantV, ok := want[k2]
		got, st := readShardedU64(t, rs, k2)
		switch {
		case ok && (st != OK || got != wantV):
			t.Errorf("key %d = (%d, %v) after recovery+retry, want (%d, OK)", k2, got, st, wantV)
		case !ok && st != NotFound:
			t.Errorf("key %d = (%d, %v) after recovery+retry, want NotFound", k2, got, st)
		}
	}
}

// readShardedU64 reads key k through a sharded session, draining a
// pending completion if the read chases storage.
func readShardedU64(t *testing.T, sess *ShardedSession, k uint64) (uint64, Status) {
	t.Helper()
	out := make([]byte, 8)
	st, err := sess.Read(key(k), nil, out, nil)
	if st == Pending {
		results, derr := sess.CompletePendingTimeout(10 * time.Second)
		if derr != nil || len(results) != 1 {
			t.Fatalf("read of key %d stalled: %v (%d results)", k, derr, len(results))
		}
		st, err = results[0].Status, results[0].Err
		if results[0].Output != nil {
			copy(out, results[0].Output)
		}
	}
	if err != nil && st != Err {
		t.Fatalf("read of key %d: %v %v", k, st, err)
	}
	return binary.LittleEndian.Uint64(out), st
}

// TestCrashRecoveryWarmReadCache crashes a store whose read cache is
// deliberately hot at checkpoint time: cold keys are read twice (fill +
// hit) so their index entries point into the cache when the fuzzy index
// scan runs, some cached keys are then overwritten (invalidation), and
// the device dies on its next write. Recovery from the surviving media
// must serve every committed key correctly — a checkpoint that persisted
// a cache-tagged address, or a recovery that trusted one, would read
// garbage or lose the key's chain.
func TestCrashRecoveryWarmReadCache(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 1500
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	dir := t.TempDir()
	cfg := Config{
		Ops: SumOps{}, PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		IndexBuckets: 1 << 10, Device: faulty,
		ReadCacheBytes: 16 << 10,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	spill(t, s, sess, n) // key i holds u64(i+1)

	// Warm the cache: read a band of cold keys twice. The second read must
	// be a hit, proving the index entries are cache-tagged right now.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 120; k++ {
			if v, st := rcRead(t, sess, k); st != OK || v != k+1 {
				t.Fatalf("warming read of key %d = (%d, %v)", k, v, st)
			}
		}
	}
	m := s.Metrics().ReadCache
	if m.Fills == 0 || m.Hits == 0 {
		t.Fatalf("cache not warm before checkpoint: %+v", m)
	}

	// Overwrite a few cached keys so the workload also covers entries that
	// moved OFF the cache between fills and the checkpoint.
	for k := uint64(0); k < 120; k += 10 {
		if st, err := sess.Upsert(key(k), u64(k+1000)); st != OK || err != nil {
			t.Fatalf("upsert of cached key %d: %v %v", k, st, err)
		}
	}

	// Checkpoint with the cache warm: the index image must carry the
	// underlying hlog addresses, never the tagged ones.
	sess.Close()
	info, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess = s.StartSession()

	// Keep serving off the warm cache, then crash the device.
	for k := uint64(0); k < 120; k++ {
		want := k + 1
		if k%10 == 0 {
			want = k + 1000
		}
		if v, st := rcRead(t, sess, k); st != OK || v != want {
			t.Fatalf("post-checkpoint read of key %d = (%d, %v), want %d", k, v, st, want)
		}
	}
	faulty.CrashAfterBytes(1)
	sess.Upsert(key(5000), u64(1)) // may or may not ack; the device is now dead
	if _, derr := sess.CompletePendingTimeout(10 * time.Second); derr != nil {
		t.Fatalf("post-crash drain hung: %v", derr)
	}
	sess.Close()
	s.Close()

	// Recover on the surviving media and verify the committed snapshot:
	// every key readable, overwrites durable, nothing served from a stale
	// or dangling cache address.
	rcfg := cfg
	rcfg.Device = mem
	r, err := Recover(rcfg, dir)
	if err != nil {
		t.Fatalf("recovery with warm-cache checkpoint: %v", err)
	}
	defer r.Close()
	if got := r.Log().TailAddress(); got != pageUp(info.T2) {
		t.Fatalf("recovered tail = %#x, want %#x", got, pageUp(info.T2))
	}
	rs := r.StartSession()
	defer rs.Close()
	for k := uint64(0); k < n; k++ {
		want := k + 1
		if k < 120 && k%10 == 0 {
			want = k + 1000
		}
		if v, st := rcRead(t, rs, k); st != OK || v != want {
			t.Fatalf("recovered read of key %d = (%d, %v), want %d", k, v, st, want)
		}
	}
	// The recovered store's own cache must work too: re-read a cold band
	// and require fresh fills and hits.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 60; k++ {
			want := k + 1
			if k%10 == 0 {
				want = k + 1000
			}
			if v, st := rcRead(t, rs, k); st != OK || v != want {
				t.Fatalf("recovered warm read of key %d = (%d, %v)", k, v, st)
			}
		}
	}
	if rm := r.Metrics().ReadCache; rm.Fills == 0 || rm.Hits == 0 {
		t.Fatalf("recovered store's read cache inert: %+v", rm)
	}
}
