//go:build mutate

package faster_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/epoch"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/linearize"
)

// The mutation gate proves the linearizability harness has teeth: each
// test enables one seeded bug (compiled in under -tags mutate), replays
// seeded schedules until the checker returns Illegal, and prints the
// minimized counterexample. A gate test that times out means the harness
// can no longer see that class of bug — which is a harness regression,
// not a store regression.
//
// Run via `make mutation-gate` (without -race: the seeded bugs are
// deliberate concurrency faults, and the interesting signal is the torn
// or lost *values* in the history, not the memory-model violation).

// detectMutation replays seeds until the checker flags a history, or the
// budget expires.
func detectMutation(t *testing.T, budget time.Duration, run func(seed int64) ([]linearize.Op, *faster.Store)) {
	t.Helper()
	start := time.Now()
	for seed := int64(1); ; seed++ {
		if time.Since(start) > budget {
			t.Fatalf("seeded bug NOT detected within %v (%d schedules) — the harness lost its teeth", budget, seed-1)
		}
		h, s := run(seed)
		r := linearize.CheckKV(h, 10*time.Second)
		s.Close()
		if r.Outcome == linearize.Illegal {
			t.Logf("seeded bug detected on schedule %d (%d states explored)\nminimized counterexample:\n%s",
				seed, r.States, linearize.Format(linearize.KVModel(), r.Counterexample))
			return
		}
	}
}

// memGateConfig is the in-memory store: a ring over a device.Null that
// holds every record the gate workloads write.
func memGateConfig() faster.Config {
	return faster.Config{PageBits: 12, BufferPages: 8, MutableFraction: 1, Device: device.NewNull()}
}

func openGateStore(t *testing.T, cfg faster.Config) *faster.Store {
	t.Helper()
	cfg.Ops = faster.SumOps{}
	if cfg.IndexBuckets == 0 {
		cfg.IndexBuckets = 1 << 9
	}
	s, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMutationGateBaseline checks that the mutate-tagged build with every
// mutation switched off still produces linearizable histories — guarding
// against a switch that leaks into the clean path.
func TestMutationGateBaseline(t *testing.T) {
	faster.DisableMutations()
	hlog.DisableMutations()
	for _, seed := range []int64{1, 2} {
		s := openGateStore(t, memGateConfig())
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 6, Ops: 60, Keys: 3, Seed: seed, RMWPct: 60, ReadPct: 30, UpsertPct: 8, DeletePct: 2,
		})
		r := linearize.CheckKV(h, 10*time.Second)
		s.Close()
		if r.Outcome != linearize.Ok {
			t.Fatalf("baseline (mutations off) not linearizable (outcome %v):\n%s",
				r.Outcome, linearize.Format(linearize.KVModel(), r.Counterexample))
		}
	}
	// The sharded scenarios' exact configurations must be green with the
	// bugs off: the mutate build retains the stale router and the naive
	// manifest reader as dead code, and neither may leak into routing or
	// recovery while its switch is down.
	for _, seed := range []int64{1, 2} {
		ss, err := faster.OpenSharded(faster.ShardedConfig{
			Shards: 4,
			Base: faster.Config{
				PageBits:        12,
				BufferPages:     8,
				MutableFraction: 1,
				IndexBuckets:    1 << 9,
				Ops:             faster.SumOps{},
			},
			NewDevice: func(int) device.Device { return device.NewNull() },
		})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := linearize.RunWorkloadTarget(linearize.ShardedTarget{ShardedStore: ss}, linearize.Workload{
			Clients: 4, Ops: 80, Keys: 16, Seed: seed,
			ReadPct: 40, UpsertPct: 25, RMWPct: 25, DeletePct: 10,
		})
		r := linearize.CheckKV(h, 10*time.Second)
		ss.Close()
		if r.Outcome != linearize.Ok {
			t.Fatalf("sharded baseline (mutations off) not linearizable (outcome %v):\n%s",
				r.Outcome, linearize.Format(linearize.KVModel(), r.Counterexample))
		}

		devs := make([]device.Device, 4)
		for i := range devs {
			devs[i] = device.NewMem(device.MemConfig{})
		}
		cfg := faster.ShardedConfig{
			Shards: 4,
			Base: faster.Config{
				Mode:         hlog.ModeHybrid,
				PageBits:     12,
				BufferPages:  8,
				IndexBuckets: 1 << 9,
				Ops:          faster.SumOps{},
			},
			NewDevice: func(i int) device.Device { return devs[i] },
		}
		eh, err := linearize.RunExactlyOnce(cfg, t.TempDir(), linearize.EOWorkload{
			Sessions: 3, Serials: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		er := linearize.Check(linearize.EOModel(), eh, 10*time.Second)
		for _, d := range devs {
			d.Close()
		}
		if er.Outcome != linearize.Ok {
			t.Fatalf("sharded exactly-once baseline (mutations off) not linearizable (outcome %v):\n%s",
				er.Outcome, linearize.Format(linearize.EOModel(), er.Counterexample))
		}
	}

	// The skip-epoch-bump scenario's exact configuration — pausing value
	// ops, constant read-only shifts — must be green with the bug off,
	// or the gate's red signal means nothing.
	for _, seed := range []int64{1, 2, 3} {
		s, err := faster.Open(faster.Config{
			Ops:          pausingSumOps{},
			Mode:         hlog.ModeHybrid,
			PageBits:     12,
			BufferPages:  8,
			IndexBuckets: 1 << 9,
			Device:       device.NewMem(device.MemConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 4, Ops: 40, Keys: 2, Seed: seed,
			ReadPct: 25, UpsertPct: 15, RMWPct: 60, DeletePct: 0,
			Interleave: func(client, n int) {
				if n%2 == 0 {
					s.Log().ShiftReadOnlyToTail()
				}
			},
		})
		// Legal histories from this scenario are expensive to verify
		// (dense concurrency on two keys), so give the checker room.
		r := linearize.CheckKV(h, 60*time.Second)
		s.Close()
		if r.Outcome != linearize.Ok {
			t.Fatalf("baseline (pausing ops, mutations off) not linearizable (outcome %v):\n%s",
				r.Outcome, linearize.Format(linearize.KVModel(), r.Counterexample))
		}
	}

	// The skip-cache-invalidate scenario's exact configuration — cold
	// reads filling a read cache while writers land on cached keys — must
	// be green with the bug off, or the gate's red signal means nothing.
	for _, seed := range []int64{1, 2} {
		s := openGateStore(t, faster.Config{
			Mode:            hlog.ModeHybrid,
			PageBits:        9,
			BufferPages:     4,
			MutableFraction: 0.5,
			Device:          device.NewMem(device.MemConfig{}),
			ReadCacheBytes:  4 << 10,
		})
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 4, Ops: 300, Keys: 64, Seed: seed,
			ReadPct: 50, UpsertPct: 25, RMWPct: 25, DeletePct: 0,
			PendingBatch: 6,
		})
		r := linearize.CheckKV(h, 10*time.Second)
		s.Close()
		if r.Outcome != linearize.Ok {
			t.Fatalf("baseline (read cache, mutations off) not linearizable (outcome %v):\n%s",
				r.Outcome, linearize.Format(linearize.KVModel(), r.Counterexample))
		}
	}
}

// TestMutationGateTornWrite seeds a torn 64-bit counter write into
// SumOps.InPlaceUpdater: the fetch-and-add becomes load + two half-word
// stores. Concurrent RMWs lose updates and readers observe half-written
// values; deltas above 1<<32 make every torn observation wildly wrong.
func TestMutationGateTornWrite(t *testing.T) {
	faster.EnableMutation("torn-write")
	defer faster.DisableMutations()
	detectMutation(t, 60*time.Second, func(seed int64) ([]linearize.Op, *faster.Store) {
		s := openGateStore(t, memGateConfig())
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 6, Ops: 40, Keys: 2, Seed: seed,
			ReadPct: 30, RMWPct: 70, UpsertPct: 0, DeletePct: 0,
			RMWMax: 1 << 40,
		})
		return h, s
	})
}

// TestMutationGateDoubleRMW seeds a double-applied update into
// SumOps.CopyUpdater (old + 2*input). Append-only mode routes every RMW
// of an existing key through the copy path, so a single client's
// rmw-then-read already refutes linearizability.
func TestMutationGateDoubleRMW(t *testing.T) {
	faster.EnableMutation("double-rmw")
	defer faster.DisableMutations()
	detectMutation(t, 60*time.Second, func(seed int64) ([]linearize.Op, *faster.Store) {
		s := openGateStore(t, faster.Config{
			Mode:        hlog.ModeAppendOnly,
			PageBits:    12,
			BufferPages: 8,
			Device:      device.NewMem(device.MemConfig{}),
		})
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 2, Ops: 40, Keys: 2, Seed: seed,
			ReadPct: 35, UpsertPct: 15, RMWPct: 50, DeletePct: 0,
		})
		return h, s
	})
}

// TestMutationGateDroppedReenqueue seeds the lost-continuation bug in
// the pending-op machinery: a fuzzy-region RMW deferral is acknowledged
// OK without ever being re-executed. The async workload routes RMWs
// through the io-worker pool, whose private sessions drain deferrals via
// the same CompletePending retries loop — so an acknowledged-but-lost
// update surfaces as a read that misses a delta the history confirms.
func TestMutationGateDroppedReenqueue(t *testing.T) {
	faster.EnableMutation("dropped-reenqueue")
	defer faster.DisableMutations()
	detectMutation(t, 120*time.Second, func(seed int64) ([]linearize.Op, *faster.Store) {
		s, err := faster.Open(faster.Config{
			Ops:             faster.SumOps{},
			Mode:            hlog.ModeHybrid,
			PageBits:        9,
			BufferPages:     4,
			MutableFraction: 0.5,
			IndexBuckets:    1 << 9,
			Device:          device.NewMem(device.MemConfig{}),
			IOWorkers:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			Clients: 4, Ops: 80, Keys: 3, Seed: seed,
			ReadPct: 30, UpsertPct: 10, RMWPct: 60, DeletePct: 0,
			AsyncIO: true, AsyncDeadline: 5 * time.Second, PendingBatch: 6,
			// Shift constantly so RMWs keep landing in the fuzzy region
			// and deferring — the path the seeded bug drops.
			Interleave: func(client, n int) {
				if n%2 == 0 {
					s.Log().ShiftReadOnlyToTail()
				}
			},
		})
		return h, s
	})
}

// pausingSumOps is SumOps with a scheduling point inside the in-place
// updater, modelling the arbitrary-duration user code the ValueOps
// contract permits. The yield sits exactly in the window the epoch bump
// protects: between an operation's read-only-offset check and its
// in-place write. The shadowed Merge drops the MergeOps interface so the
// store takes the plain copy-update path rather than CRDT deltas.
type pausingSumOps struct{ faster.SumOps }

func (pausingSumOps) Merge() {}

func (p pausingSumOps) InPlaceUpdater(key, value, input []byte) bool {
	runtime.Gosched()
	return p.SumOps.InPlaceUpdater(key, value, input)
}

func (p pausingSumOps) ConcurrentWriter(key, dst, src []byte) bool {
	runtime.Gosched()
	return p.SumOps.ConcurrentWriter(key, dst, src)
}

// TestMutationGateSkipEpochBump seeds the classic epoch-protection bug:
// read-only shifts publish the safe read-only offset immediately instead
// of waiting (via epoch bump) for every session to observe the shift.
// A session paused between its read-only-offset check and its in-place
// write can then update a record that a faster session is concurrently
// copy-updating past (the fuzzy region the bump exists to create is
// gone), losing the acknowledged update.
func TestMutationGateSkipEpochBump(t *testing.T) {
	hlog.EnableMutation("skip-epoch-bump")
	defer hlog.DisableMutations()
	detectMutation(t, 120*time.Second, func(seed int64) ([]linearize.Op, *faster.Store) {
		s, err := faster.Open(faster.Config{
			Ops:          pausingSumOps{},
			Mode:         hlog.ModeHybrid,
			PageBits:     12,
			BufferPages:  8,
			IndexBuckets: 1 << 9,
			Device:       device.NewMem(device.MemConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			// 4*40/2 keys ≈ 80 ops per partition, safely inside the
			// checker's 256-op partition limit.
			Clients: 4, Ops: 40, Keys: 2, Seed: seed,
			ReadPct: 25, UpsertPct: 15, RMWPct: 60, DeletePct: 0,
			// Shift constantly so updates keep straddling the
			// read-only boundary while other sessions are mid-operation.
			Interleave: func(client, n int) {
				if n%2 == 0 {
					s.Log().ShiftReadOnlyToTail()
				}
			},
		})
		return h, s
	})
}

// TestMutationGateSkipSerialFsync seeds the serial-table durability bug:
// the checkpoint skips the session table's fsync and the persisted
// payload loses its final entry (the torn tail an unsynced rename can
// leave behind), while recovery trusts whatever tail survived instead of
// failing the CRC and falling back a generation. The torn-off session's
// committed frontier silently reverts, the retrying client resubmits
// serials the store already acknowledged and applied, and the
// duplicate-delivery history double-applies — which the dedup-aware
// exactly-once model refutes.
func TestMutationGateSkipSerialFsync(t *testing.T) {
	faster.EnableMutation("skip-serial-fsync")
	defer faster.DisableMutations()
	start := time.Now()
	budget := 60 * time.Second
	for seed := int64(1); ; seed++ {
		if time.Since(start) > budget {
			t.Fatalf("seeded bug NOT detected within %v (%d schedules) — the harness lost its teeth", budget, seed-1)
		}
		cfg := faster.ShardedConfig{Shards: 1, Base: faster.Config{
			Mode:         hlog.ModeHybrid,
			PageBits:     12,
			BufferPages:  8,
			IndexBuckets: 1 << 9,
			Device:       device.NewMem(device.MemConfig{}),
			Ops:          faster.SumOps{},
		}}
		h, err := linearize.RunExactlyOnce(cfg, t.TempDir(), linearize.EOWorkload{
			Sessions: 3, Serials: 12, Keys: 1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := linearize.Check(linearize.EOModel(), h, 10*time.Second)
		if r.Outcome == linearize.Illegal {
			t.Logf("seeded bug detected on schedule %d (%d states explored)\nminimized counterexample:\n%s",
				seed, r.States, linearize.Format(linearize.EOModel(), r.Counterexample))
			return
		}
	}
}

// TestMutationGateRouteStaleMap seeds the stale-router bug: every fourth
// routing decision splits the hash space as if there were one shard
// fewer, so a fraction of the key space intermittently lands on the
// wrong shard. A
// write routed astray is invisible to correctly-routed reads (and a
// stale replica resurrects overwritten values), which the KV checker
// refutes as a lost or time-travelling update.
func TestMutationGateRouteStaleMap(t *testing.T) {
	faster.EnableMutation("route-stale-map")
	defer faster.DisableMutations()
	start := time.Now()
	budget := 60 * time.Second
	for seed := int64(1); ; seed++ {
		if time.Since(start) > budget {
			t.Fatalf("seeded bug NOT detected within %v (%d schedules) — the harness lost its teeth", budget, seed-1)
		}
		ss, err := faster.OpenSharded(faster.ShardedConfig{
			Shards: 4,
			Base: faster.Config{
				PageBits:        12,
				BufferPages:     8,
				MutableFraction: 1,
				IndexBuckets:    1 << 9,
				Ops:             faster.SumOps{},
			},
			NewDevice: func(int) device.Device { return device.NewNull() },
		})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := linearize.RunWorkloadTarget(linearize.ShardedTarget{ShardedStore: ss}, linearize.Workload{
			Clients: 4, Ops: 80, Keys: 16, Seed: seed,
			ReadPct: 40, UpsertPct: 25, RMWPct: 25, DeletePct: 10,
		})
		r := linearize.CheckKV(h, 10*time.Second)
		ss.Close()
		if r.Outcome == linearize.Illegal {
			t.Logf("seeded bug detected on schedule %d (%d states explored)\nminimized counterexample:\n%s",
				seed, r.States, linearize.Format(linearize.KVModel(), r.Counterexample))
			return
		}
	}
}

// TestMutationGateSkipShardFsync seeds the sharded manifest durability
// bug: one shard's generation meta is committed without fsync (modeled
// as a torn meta file) yet the manifest still advances, and recovery
// falls back per shard instead of per ensemble — the torn shard
// silently reloads an older generation while its siblings serve the new
// one. The connection frontier (max acked over shards) then overstates
// what the torn shard holds, the retrying client never resubmits the
// serials that shard lost, and their deltas vanish — which the sharded
// dedup-aware counter model refutes.
func TestMutationGateSkipShardFsync(t *testing.T) {
	faster.EnableMutation("skip-shard-fsync")
	defer faster.DisableMutations()
	start := time.Now()
	budget := 60 * time.Second
	for seed := int64(1); ; seed++ {
		if time.Since(start) > budget {
			t.Fatalf("seeded bug NOT detected within %v (%d schedules) — the harness lost its teeth", budget, seed-1)
		}
		devs := make([]device.Device, 4)
		for i := range devs {
			devs[i] = device.NewMem(device.MemConfig{})
		}
		cfg := faster.ShardedConfig{
			Shards: 4,
			Base: faster.Config{
				Mode:         hlog.ModeHybrid,
				PageBits:     12,
				BufferPages:  8,
				IndexBuckets: 1 << 9,
				Ops:          faster.SumOps{},
			},
			NewDevice: func(i int) device.Device { return devs[i] },
		}
		h, err := linearize.RunExactlyOnce(cfg, t.TempDir(), linearize.EOWorkload{
			Sessions: 3, Serials: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := linearize.Check(linearize.EOModel(), h, 10*time.Second)
		for _, d := range devs {
			d.Close()
		}
		if r.Outcome == linearize.Illegal {
			t.Logf("seeded bug detected on schedule %d (%d states explored)\nminimized counterexample:\n%s",
				seed, r.States, linearize.Format(linearize.EOModel(), r.Counterexample))
			return
		}
	}
}

// TestMutationGateSkipCacheInvalidate seeds the read-cache staleness bug:
// a write whose CAS expectation is a cache-tagged entry links the fresh
// hlog record BEHIND the cached copy (redirecting the cached record's
// prev) instead of republishing the index entry over it. The entry keeps
// pointing at the cache, so every subsequent read of the key is served
// the pre-write cached value — an acknowledged update that readers never
// observe, which the KV checker refutes as a lost update.
func TestMutationGateSkipCacheInvalidate(t *testing.T) {
	faster.EnableMutation("skip-cache-invalidate")
	defer faster.DisableMutations()
	detectMutation(t, 120*time.Second, func(seed int64) ([]linearize.Op, *faster.Store) {
		s := openGateStore(t, faster.Config{
			Mode:            hlog.ModeHybrid,
			PageBits:        9, // 512-byte pages over a 2 KB buffer: reads go cold fast
			BufferPages:     4,
			MutableFraction: 0.5,
			Device:          device.NewMem(device.MemConfig{}),
			ReadCacheBytes:  4 << 10,
		})
		h, _ := linearize.RunWorkload(s, linearize.Workload{
			// 64 keys overflow the buffer, so reads keep filling the cache
			// and the write-heavy mix keeps hitting cached entries.
			Clients: 4, Ops: 300, Keys: 64, Seed: seed,
			ReadPct: 50, UpsertPct: 25, RMWPct: 25, DeletePct: 0,
			PendingBatch: 6,
		})
		return h, s
	})
}

// TestMutationGateSkipWaitRefresh seeds the self-deadlock class into the
// one epoch wait (epoch.Manager.Wait): the waiter stops refreshing its own
// guard, so it pins the epoch whose trigger action — the flush and the
// eviction of the frame it needs — it is waiting for. A lone writer that
// wraps the log buffer must finish with the seed off and hang with it on:
// this gate's red signal is a timeout, not a history. Switching the seed
// back off lets the stuck wait refresh again, so the writer drains.
func TestMutationGateSkipWaitRefresh(t *testing.T) {
	epoch.DisableMutations()
	wrap := func() (*faster.Store, <-chan error) {
		s, err := faster.Open(faster.Config{
			Ops:          faster.SumOps{},
			Mode:         hlog.ModeHybrid,
			PageBits:     12,
			BufferPages:  8,
			IndexBuckets: 1 << 12,
			Device:       device.NewMem(device.MemConfig{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			sess := s.StartSession()
			defer sess.Close()
			// 4 096 records of 32 bytes: four trips around a 32 KiB buffer.
			for i := uint64(0); i < 4096; i++ {
				kv := binary.LittleEndian.AppendUint64(nil, i)
				if st, err := sess.Upsert(kv, kv); st != faster.OK {
					done <- fmt.Errorf("upsert %d: %v %v", i, st, err)
					return
				}
			}
			done <- nil
		}()
		return s, done
	}
	finish := func(s *faster.Store, done <-chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the writer never wrapped the buffer", what)
		}
		s.Close()
	}

	s, done := wrap()
	finish(s, done, "baseline (seed off)")

	epoch.EnableMutation("skip-wait-refresh")
	defer epoch.DisableMutations()
	s, done = wrap()
	select {
	case err := <-done:
		t.Fatalf("seeded bug NOT detected: the writer wrapped the buffer without refreshing its guard in a wait (err %v) — the gate lost its teeth", err)
	case <-time.After(3 * time.Second):
		t.Log("seeded bug detected: the lone writer hung in an epoch wait (timeout)")
	}
	epoch.DisableMutations()
	finish(s, done, "after switching the seed off")
}
