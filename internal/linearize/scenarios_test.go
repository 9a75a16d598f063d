package linearize

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/testutil"
)

// The scenarios below replay seeded pseudo-random schedules against real
// stores configured so that specific interleaving machinery is on the hot
// path: the pure in-memory region, read-only copy-to-tail (RCU),
// fuzzy-region RMW deferral, pending-I/O continuations on a faulty
// device, concurrent index resize, and checkpoint/recover. Every history
// must check linearizable. `make linearize` runs them under -race.

const checkBudget = 20 * time.Second

// seeds gives each scenario a few independent schedules. Keep the list
// short: the Makefile budget covers seeds x scenarios under -race.
var seeds = []int64{1, 42, 777}

func checkHistory(t *testing.T, store *faster.Store, history []Op) {
	t.Helper()
	r := CheckKV(history, checkBudget)
	switch r.Outcome {
	case Illegal:
		t.Fatalf("history is NOT linearizable (partition %d, %d states explored)\nminimized counterexample:\n%s",
			r.Partition, r.States, Format(KVModel(), r.Counterexample))
	case Unknown:
		t.Fatalf("checker exceeded its %v budget (partition %d, longest prefix %d/%d)",
			checkBudget, r.Partition, r.LongestPrefix, len(history))
	}
	if store != nil {
		st := store.Stats()
		t.Logf("ops=%d inPlace=%d appends=%d fuzzy=%d pendingIO=%d failedCAS=%d states=%d",
			st.Operations, st.InPlace, st.Appends, st.FuzzyRMWs, st.PendingIOs, st.FailedCAS, r.States)
	}
}

func openScenarioStore(t *testing.T, cfg faster.Config) *faster.Store {
	t.Helper()
	if cfg.Ops == nil {
		cfg.Ops = faster.SumOps{}
	}
	if cfg.IndexBuckets == 0 {
		cfg.IndexBuckets = 1 << 9
	}
	s, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestLinearizableMemory exercises the in-memory store: a ring over a
// device.Null that holds every record, so every update is in-place or an
// in-memory RCU and nothing evicts.
func TestLinearizableMemory(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := openScenarioStore(t, faster.Config{
				PageBits:        12,
				BufferPages:     8,
				MutableFraction: 1,
				Device:          device.NewNull(),
			})
			h, _ := RunWorkload(s, Workload{
				Clients: 6, Ops: 80, Keys: 5, Seed: seed,
			})
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizableReadOnlyCopy keeps shifting the read-only offset to the
// tail, so updates constantly land on read-only records and take the
// copy-to-tail (RCU) path while readers race the copies.
func TestLinearizableReadOnlyCopy(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := openScenarioStore(t, faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    12,
				BufferPages: 8,
				Device:      device.NewMem(device.MemConfig{}),
			})
			h, _ := RunWorkload(s, Workload{
				Clients: 6, Ops: 80, Keys: 5, Seed: seed,
				// Every client shifts the read-only offset to the tail
				// every few operations, so updates keep landing on
				// read-only records and must copy to the tail.
				Interleave: func(client, n int) {
					if n%4 == 0 {
						s.Log().ShiftReadOnlyToTail()
					}
				},
			})
			if st := s.Stats(); st.Appends < 100 {
				t.Errorf("scenario did not force copy-to-tail (stats: %+v)", st)
			}
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizableFuzzyRMW drives an RMW-heavy mix while the read-only
// offset races ahead of the safe read-only offset, forcing RMWs into the
// fuzzy region where they must defer (opRMWRetry) rather than update a
// record that might be mid-flush.
func TestLinearizableFuzzyRMW(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := openScenarioStore(t, faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    12,
				BufferPages: 8,
				Device:      device.NewMem(device.MemConfig{}),
				// A long refresh interval widens the window between the
				// read-only shift and every session observing it — the
				// fuzzy region lives in that window.
				RefreshInterval: 1 << 20,
			})
			h, _ := RunWorkload(s, Workload{
				Clients: 6, Ops: 80, Keys: 5, Seed: seed,
				ReadPct: 20, UpsertPct: 8, RMWPct: 70, DeletePct: 2,
				// Shifting from inside the schedule leaves the other
				// five sessions unrefreshed, so the safe read-only
				// offset trails the shift and their next RMWs land in
				// the fuzzy region and must defer.
				Interleave: func(client, n int) {
					if n%8 == 0 {
						s.Log().ShiftReadOnlyToTail()
					}
				},
			})
			if st := s.Stats(); st.FuzzyRMWs == 0 {
				t.Errorf("scenario produced no fuzzy deferrals (stats: %+v)", st)
			}
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizablePendingIO uses an append-only log with a tiny buffer
// over a fault-injecting device, so every update appends, pages evict
// constantly, and reads/RMWs chase records onto storage and complete
// asynchronously — some after transparent retries of injected transient
// faults, some failing outright (recorded as incomplete/no-ops).
func TestLinearizablePendingIO(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dev := device.NewFaulty(device.NewMem(device.MemConfig{}))
			dev.SeedFaults(uint64(seed), 0.05, 0)
			s := openScenarioStore(t, faster.Config{
				Mode:        hlog.ModeAppendOnly,
				PageBits:    9, // 512-byte pages: records spill to storage fast
				BufferPages: 4,
				Device:      dev,
			})
			// The wide key space leaves keys cold long enough to evict
			// before they are read again.
			h, _ := RunWorkload(s, Workload{
				Clients: 4, Ops: 150, Keys: 24, Seed: seed,
				PendingBatch: 6,
			})
			if st := s.Stats(); st.PendingIOs == 0 {
				t.Errorf("scenario did not exercise pending I/O (stats: %+v)", st)
			}
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizableResize doubles the hash index repeatedly while traffic
// runs, exercising the split-chain rehash against concurrent CAS
// publishes. The key space is well above the 56 entries the 8-bucket
// table holds, so chains overflow and migration walks overflow buckets,
// and there are more clients than processors on small machines.
func TestLinearizableResize(t *testing.T) {
	const clients, ops = 6, 200
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := openScenarioStore(t, faster.Config{
				Mode:         hlog.ModeHybrid,
				PageBits:     12,
				BufferPages:  8,
				Device:       device.NewMem(device.MemConfig{}),
				IndexBuckets: 1 << 3, // tiny: long chains, real rehash work
			})
			rec := NewRecorder()
			// Each grow fires once the recorder clock shows another
			// tenth of the run's ~2*Clients*Ops events, so the grows
			// interleave with live traffic regardless of how fast the
			// schedule executes. (GrowIndex must run off-session, hence
			// Chaos rather than Interleave.)
			RecordWorkload(s, rec, Workload{
				Clients: clients, Ops: ops, Keys: 128, Seed: seed,
				Chaos: func(stop <-chan struct{}) {
					events := int64(2 * clients * ops)
					for i := int64(1); i <= 4; i++ {
						for rec.Peek() < i*events/10 {
							select {
							case <-stop:
								return
							default:
								runtime.Gosched()
							}
						}
						if err := s.GrowIndex(); err != nil {
							t.Errorf("GrowIndex: %v", err)
							return
						}
					}
				},
			})
			checkHistory(t, s, rec.History())
		})
	}
}

// TestLinearizableCheckpointRecover takes a checkpoint in the middle of
// concurrent traffic, "crashes" (abandons the store), recovers from the
// checkpoint directory and the surviving device, and verifies the
// recovered state is a prefix-consistent cut of some linearization:
// everything acknowledged before the checkpoint began must survive;
// operations in flight across it may land on either side.
func TestLinearizableCheckpointRecover(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dev := device.NewMem(device.MemConfig{})
			dir := t.TempDir()
			cfg := faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    12,
				BufferPages: 8,
				Device:      dev,
				Ops:         faster.SumOps{},
			}
			s, err := faster.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			rec := NewRecorder()
			var ckptStart, ckptEnd int64
			ckptDone := make(chan error, 1)
			quiesce := make(chan struct{})
			RecordWorkload(s, rec, Workload{
				Clients: 4, Ops: 80, Keys: 5, Seed: seed,
				// Once the checkpoint begins, each client races at most a
				// handful more operations against the drain and stops. The
				// crash window then holds a bounded set of in-flight
				// operations however slow the machine, keeping the
				// checker's incomplete-op search tractable.
				Quiesce: quiesce, QuiesceTail: 5,
				Chaos: func(stop <-chan struct{}) {
					// Fire mid-workload: wait until the recorder clock
					// shows roughly a third of the run's events. If the
					// workload outruns us the checkpoint still commits
					// after the last op, which only strengthens the check
					// (everything must survive).
					for rec.Peek() < 4*80*2/3 {
						select {
						case <-stop:
							goto checkpoint
						default:
							runtime.Gosched()
						}
					}
				checkpoint:
					ckptStart = rec.Now()
					close(quiesce)
					_, err := s.Checkpoint(dir)
					ckptEnd = rec.Now()
					ckptDone <- err
				},
			})
			if err := <-ckptDone; err != nil {
				t.Fatal(err)
			}
			pre := PruneCrashWindow(rec.History(), ckptStart, ckptEnd)
			s.Close() // the "crash": recovery trusts only the checkpoint cut

			r, err := faster.Recover(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// Observe the recovered state of every key, on the same
			// logical clock (all post-crash timestamps sort last).
			c := rec.Client(99)
			sess := r.StartSession()
			for k := uint64(1); k <= 5; k++ {
				key := make([]byte, 8)
				binary.LittleEndian.PutUint64(key, k)
				out := make([]byte, 8)
				id := c.Begin(KVInput{Kind: KVRead, Key: k})
				st, err := sess.Read(key, nil, out, nil)
				if st == faster.Pending {
					results := sess.CompletePending(true)
					if len(results) != 1 {
						t.Fatalf("CompletePending: %d results", len(results))
					}
					st, err = results[0].Status, results[0].Err
				}
				switch st {
				case faster.OK:
					c.End(id, KVOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
				case faster.NotFound:
					c.End(id, KVOutput{})
				default:
					t.Fatalf("post-recovery read of key %d: %v %v", k, st, err)
				}
			}
			sess.Close()

			checkHistory(t, r, append(pre, c.History()...))
		})
	}
}

// TestLinearizableBatch drives the mixed-kind ExecBatch path: every
// client issues its operations in windows of 7 (reads, upserts, RMWs
// and deletes interleaved) against a tiny hybrid log whose read-only
// offset keeps shifting to the tail. Batched upserts therefore land on
// read-only records and copy to the tail inside a shared reservation,
// while batched reads chase evicted records into pending I/O — the two
// regions the batch planner must cross without losing per-op
// linearizability.
func TestLinearizableBatch(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := openScenarioStore(t, faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    9, // 512-byte pages: records spill to storage fast
				BufferPages: 4,
				Device:      device.NewMem(device.MemConfig{}),
			})
			// The wide key space leaves keys cold long enough to evict
			// before a batched read chases them onto storage.
			h, _ := RunWorkload(s, Workload{
				Clients: 4, Ops: 200, Keys: 32, Seed: seed,
				Batch: 7, PendingBatch: 6,
				Interleave: func(client, n int) {
					if n%4 == 0 {
						s.Log().ShiftReadOnlyToTail()
					}
				},
			})
			st := s.Stats()
			if st.Appends == 0 || st.PendingIOs == 0 {
				t.Errorf("scenario did not span copy-to-tail and pending I/O (stats: %+v)", st)
			}
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizableCompaction runs copy-forward compactions and epoch-safe
// truncations continuously under the full workload — reads, RMWs, deletes
// and pending I/O on a faulty device — so copied records race live CAS
// publishes and in-flight reads land below a moving begin address. No
// committed write may be lost and no deleted key may be resurrected by a
// stale copy-forward.
func TestLinearizableCompaction(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Read faults only: compaction's flush wait must be able to
			// persist the copied records.
			dev := device.NewFaulty(device.NewMem(device.MemConfig{}))
			dev.SeedFaults(uint64(seed), 0.05, 0)
			s := openScenarioStore(t, faster.Config{
				Mode:            hlog.ModeHybrid,
				PageBits:        9, // 512-byte pages: a deep stable region to reclaim
				BufferPages:     4,
				MutableFraction: 0.5,
				Device:          dev,
			})
			compactions := 0
			// Compact runs off-session (its epoch drain would deadlock
			// against a parked-nowhere workload session), hence Chaos.
			// It outlives the workload until a first compaction has
			// succeeded: on a loaded machine the clients can finish
			// before one does. The deadline turns a compaction that can
			// never succeed into the assertion below, not a hang.
			h, _ := RunWorkload(s, Workload{
				Clients: 4, Ops: 400, Keys: 32, Seed: seed,
				PendingBatch: 6,
				Chaos: func(stop <-chan struct{}) {
					var giveUp time.Time
					for {
						select {
						case <-stop:
							if giveUp.IsZero() {
								giveUp = time.Now().Add(30 * time.Second)
							}
							if compactions > 0 || time.Now().After(giveUp) {
								return
							}
						default:
						}
						s.Log().ShiftReadOnlyToTail()
						cut := s.Log().SafeReadOnlyAddress() &^ (s.Log().PageSize() - 1)
						if cut > s.Log().BeginAddress() {
							if _, err := s.Compact(cut); err == nil {
								compactions++
							}
						}
						runtime.Gosched()
					}
				},
			})
			if compactions == 0 {
				t.Error("scenario never completed a compaction")
			}
			if s.Log().BeginAddress() == 0 {
				t.Error("begin address never advanced")
			}
			t.Logf("compactions=%d begin=%#x", compactions, s.Log().BeginAddress())
			checkHistory(t, s, h)
		})
	}
}

// TestLinearizableAsyncIO is the stall-free-I/O scenario: every read
// and RMW goes through the store's io-worker pool (SubmitRead/SubmitRMW)
// and completes out of band on worker goroutines, racing a chaos
// goroutine that constantly shifts the read-only boundary and compacts
// the stable region — the continuation machinery (chain descents, fuzzy
// deferrals, truncation restarts) driven by workers instead of the
// submitting session. Deadline sheds are recorded as incomplete RMWs /
// dropped reads, so shed accounting is part of the checked history.
func TestLinearizableAsyncIO(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dev := device.NewFaulty(device.NewMem(device.MemConfig{}))
			dev.SeedFaults(uint64(seed), 0.05, 0)
			s := openScenarioStore(t, faster.Config{
				Mode:            hlog.ModeHybrid,
				PageBits:        9, // 512-byte pages: misses spill to storage fast
				BufferPages:     4,
				MutableFraction: 0.5,
				Device:          dev,
				IOWorkers:       3,
			})
			h, _ := RunWorkload(s, Workload{
				Clients: 4, Ops: 150, Keys: 24, Seed: seed,
				PendingBatch:  6,
				AsyncIO:       true,
				AsyncDeadline: 2 * time.Second,
				Chaos: func(stop <-chan struct{}) {
					for {
						select {
						case <-stop:
							return
						default:
						}
						s.Log().ShiftReadOnlyToTail()
						cut := s.Log().SafeReadOnlyAddress() &^ (s.Log().PageSize() - 1)
						if cut > s.Log().BeginAddress() {
							s.Compact(cut)
						}
						runtime.Gosched()
					}
				},
			})
			m := s.Metrics()
			if m.IOSubmitted == 0 || m.IODelivered == 0 {
				t.Errorf("scenario did not route ops through the io pool: %+v", m)
			}
			if m.IOSubmitted != m.IODelivered+m.IOShedTimeout {
				t.Errorf("io accounting leak: submitted=%d delivered=%d shed=%d",
					m.IOSubmitted, m.IODelivered, m.IOShedTimeout)
			}
			checkHistory(t, s, h)
		})
	}
}

// checkExactlyOnce runs the exactly-once driver with w over cfg and
// fails t unless the history linearizes against the dedup-aware model.
func checkExactlyOnce(t *testing.T, cfg faster.ShardedConfig, w EOWorkload) []Op {
	t.Helper()
	h, err := RunExactlyOnce(cfg, t.TempDir(), w)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(EOModel(), h, checkBudget)
	switch r.Outcome {
	case Illegal:
		t.Fatalf("history is NOT linearizable (%d states explored)\nminimized counterexample:\n%s",
			r.States, Format(EOModel(), r.Counterexample))
	case Unknown:
		t.Fatalf("checker exceeded its %v budget (longest prefix %d/%d)",
			checkBudget, r.LongestPrefix, len(h))
	}
	t.Logf("history=%d ops, states=%d", len(h), r.States)
	return h
}

// misdirectedDups counts the history's duplicate deliveries that name a
// different key than their serial's first delivery.
func misdirectedDups(h []Op) int {
	type stamp struct {
		session int
		serial  uint64
	}
	first := map[stamp]uint64{}
	for _, op := range h {
		if in := op.Input.(EOInput); in.Kind == KVRMW && !in.Dup {
			first[stamp{in.Session, in.Serial}] = in.Key
		}
	}
	n := 0
	for _, op := range h {
		in := op.Input.(EOInput)
		if k, ok := first[stamp{in.Session, in.Serial}]; ok && in.Dup && k != in.Key {
			n++
		}
	}
	return n
}

// TestLinearizableExactlyOnce is the duplicate-delivery scenario on a
// flat store (a one-shard ensemble): three stamped sessions hammer their
// counters through the serial protocol with seeded duplicate
// re-deliveries, checkpoints race the commits, the store crashes and
// recovers, and every session resubmits above its recovered frontier —
// exactly what a retrying client does. The dedup-aware model accepts
// each delta at most once per serial, so a double-apply (or a lost
// acknowledgement) has no linearization. Each seed runs over one shared
// counter, then over eight keys, where a share of the duplicates names a
// different key than their serial's first delivery — a misbehaving
// client — and must touch no counter; TestLinearizableExactlyOnceSharded
// runs the same across four shards.
func TestLinearizableExactlyOnce(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, keys := range []uint64{1, EOMaxKeys} {
				h := checkExactlyOnce(t, faster.ShardedConfig{Shards: 1, Base: faster.Config{
					Mode:        hlog.ModeHybrid,
					PageBits:    12,
					BufferPages: 8,
					Device:      device.NewMem(device.MemConfig{}),
					Ops:         faster.SumOps{},
				}}, EOWorkload{Sessions: 3, Serials: 12, Keys: keys, Seed: seed})
				if keys > 1 && misdirectedDups(h) == 0 {
					t.Fatal("no duplicate re-delivery named a different key")
				}
			}
		})
	}
}

// openScenarioSharded builds an n-shard store with one fault-injecting
// device per shard; the devices survive a store crash so recovery
// scenarios can reopen over them.
func openScenarioSharded(t *testing.T, n int, seed int64, base faster.Config) (faster.ShardedConfig, *faster.ShardedStore) {
	t.Helper()
	if base.Ops == nil {
		base.Ops = faster.SumOps{}
	}
	if base.IndexBuckets == 0 {
		base.IndexBuckets = 1 << 9
	}
	devs := make([]device.Device, n)
	for i := range devs {
		f := device.NewFaulty(device.NewMem(device.MemConfig{}))
		f.SeedFaults(uint64(seed)+uint64(i), 0.05, 0)
		devs[i] = f
	}
	t.Cleanup(func() {
		for _, d := range devs {
			d.Close()
		}
	})
	cfg := faster.ShardedConfig{
		Shards:    n,
		Base:      base,
		NewDevice: func(i int) device.Device { return devs[i] },
	}
	ss, err := faster.OpenSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, ss
}

// TestLinearizableSharded is the cluster scenario: multi-key batch
// windows span shards as concurrent per-shard fan-outs while a chaos
// goroutine compacts every shard independently, then a second
// (non-batched) phase on the same clock races a sharded checkpoint —
// every shard cut under the global serial barrier — crashes the
// ensemble, recovers from the manifest and observes every key. Each
// shard runs on its own fault-injecting device, so reads chase evicted
// records into per-shard pending I/O throughout.
func TestLinearizableSharded(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			const shards, keys = 4, 32
			dir := t.TempDir()
			cfg, ss := openScenarioSharded(t, shards, seed, faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    9, // 512-byte pages: records spill to storage fast
				BufferPages: 2,
			})

			rec := NewRecorder()

			// Phase 1: batched multi-shard windows racing per-shard
			// compaction. The compaction sweep stops at half the phase's
			// events: continuous compaction would copy every record back
			// to the resident tail, so the second half is what lets the
			// per-shard buffers overflow and batched reads chase evicted
			// records into pending I/O.
			compactions := 0
			RecordWorkloadTarget(ShardedTarget{ss}, rec, Workload{
				// Four shards split the data: the per-shard volume must
				// still overflow each shard's 2-page buffer.
				Clients: 4, Ops: 400, Keys: keys, Seed: seed,
				Batch: 7, PendingBatch: 6,
				// The shift keeps every shard flushing and evicting even
				// after the compaction sweep stops.
				Interleave: func(client, n int) {
					if n%4 == 0 {
						for i := 0; i < ss.NumShards(); i++ {
							ss.Shard(i).Log().ShiftReadOnlyToTail()
						}
					}
				},
				// The sweep runs past half the events until one compaction
				// has landed: on a host with fewer cores than processors the
				// clients can finish the first half before this goroutine
				// first runs.
				Chaos: func(stop <-chan struct{}) {
					for rec.Peek() < 4*400 || compactions == 0 {
						select {
						case <-stop:
							return
						default:
						}
						for i := 0; i < ss.NumShards(); i++ {
							sh := ss.Shard(i)
							sh.Log().ShiftReadOnlyToTail()
							cut := sh.Log().SafeReadOnlyAddress() &^ (sh.Log().PageSize() - 1)
							if cut > sh.Log().BeginAddress() {
								if _, err := sh.Compact(cut); err == nil {
									compactions++
								}
							}
						}
						runtime.Gosched()
					}
				},
			})
			if compactions == 0 {
				t.Error("phase 1 never completed a per-shard compaction")
			}

			// Phase 2: per-op traffic racing a sharded checkpoint, then a
			// crash. Quiesce bounds the crash window exactly as in the
			// single-store checkpoint scenario.
			phase1End := rec.Now()
			var ckptStart, ckptEnd int64
			ckptDone := make(chan error, 1)
			quiesce := make(chan struct{})
			RecordWorkloadTarget(ShardedTarget{ss}, rec, Workload{
				Clients: 4, Ops: 80, Keys: keys, Seed: seed + 1,
				PendingBatch: 6,
				Quiesce:      quiesce, QuiesceTail: 5,
				Chaos: func(stop <-chan struct{}) {
					for rec.Peek() < phase1End+4*80*2/3 {
						select {
						case <-stop:
							goto checkpoint
						default:
							runtime.Gosched()
						}
					}
				checkpoint:
					ckptStart = rec.Now()
					close(quiesce)
					_, err := ss.Checkpoint(dir)
					ckptEnd = rec.Now()
					ckptDone <- err
				},
			})
			if err := <-ckptDone; err != nil {
				t.Fatal(err)
			}
			var pendingIOs uint64
			for i := 0; i < ss.NumShards(); i++ {
				pendingIOs += ss.Shard(i).Stats().PendingIOs
			}
			if pendingIOs == 0 {
				t.Error("scenario did not exercise per-shard pending I/O")
			}
			pre := PruneCrashWindow(rec.History(), ckptStart, ckptEnd)
			ss.Close() // the "crash": recovery trusts only the manifest

			r, err := faster.RecoverSharded(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// Observe the recovered state of every key on the same clock.
			c := rec.Client(99)
			sess := r.StartSession()
			for k := uint64(1); k <= keys; k++ {
				key := make([]byte, 8)
				binary.LittleEndian.PutUint64(key, k)
				out := make([]byte, 8)
				id := c.Begin(KVInput{Kind: KVRead, Key: k})
				st, err := sess.Read(key, nil, out, nil)
				if st == faster.Pending {
					results := sess.CompletePending(true)
					if len(results) != 1 {
						t.Fatalf("CompletePending: %d results", len(results))
					}
					st, err = results[0].Status, results[0].Err
				}
				switch st {
				case faster.OK:
					c.End(id, KVOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
				case faster.NotFound:
					c.End(id, KVOutput{})
				default:
					t.Fatalf("post-recovery read of key %d: %v %v", k, st, err)
				}
			}
			sess.Close()

			checkHistory(t, nil, append(pre, c.History()...))
		})
	}
}

// TestLinearizableExactlyOnceSharded is the sharded duplicate-delivery
// scenario: stamped sessions scatter their serial streams across shards
// (each shard's table admitting an ascending subsequence), a share of
// the duplicates names a key on another shard, two sharded checkpoints
// commit generations mid-run, the ensemble crashes and recovers from the
// manifest, and every session resubmits above the connection frontier —
// the max acked serial over shards, sound only because the checkpoint
// cut every shard at one serial barrier.
func TestLinearizableExactlyOnceSharded(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			cfg, ss := openScenarioSharded(t, 4, seed, faster.Config{
				Mode:        hlog.ModeHybrid,
				PageBits:    12,
				BufferPages: 8,
			})
			ss.Close() // RunExactlyOnce opens its own store over the devices
			h := checkExactlyOnce(t, cfg, EOWorkload{Sessions: 3, Serials: 12, Seed: seed})
			if misdirectedDups(h) == 0 {
				t.Fatal("no duplicate re-delivery named a different key")
			}
		})
	}
}

// TestLinearizableReadCache runs the full mixed workload with the record
// read cache enabled over a tiny log buffer, so cold reads constantly
// fill the cache, writers constantly invalidate cached copies (upserts,
// RMWs and deletes racing cached readers), pending I/O completions
// publish fills against moving index entries, and a chaos goroutine
// compacts and truncates the log underneath cached records. A reader
// served a stale cached value after an acknowledged write — or a cached
// copy surviving the truncation of its backing chain — has no
// linearization.
func TestLinearizableReadCache(t *testing.T) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Read faults only: compaction's flush wait must be able to
			// persist the copied records.
			dev := device.NewFaulty(device.NewMem(device.MemConfig{}))
			dev.SeedFaults(uint64(seed), 0.05, 0)
			s := openScenarioStore(t, faster.Config{
				Mode:            hlog.ModeHybrid,
				PageBits:        9, // 512-byte pages: misses spill to storage fast
				BufferPages:     4,
				MutableFraction: 0.5,
				Device:          dev,
				ReadCacheBytes:  4 << 10,
			})
			h, _ := RunWorkload(s, Workload{
				// 64 keys × 32-byte records exceed the 2 KB buffer, so a
				// read of any key not updated very recently descends to
				// storage — and the second such read must hit the cache.
				Clients: 4, Ops: 400, Keys: 64, Seed: seed,
				ReadPct: 50, UpsertPct: 22, RMWPct: 22, DeletePct: 6,
				PendingBatch: 6,
				Chaos: func(stop <-chan struct{}) {
					for {
						select {
						case <-stop:
							return
						default:
						}
						s.Log().ShiftReadOnlyToTail()
						cut := s.Log().SafeReadOnlyAddress() &^ (s.Log().PageSize() - 1)
						if cut > s.Log().BeginAddress() {
							s.Compact(cut)
						}
						runtime.Gosched()
					}
				},
			})
			m := s.Metrics().ReadCache
			if m.Fills == 0 {
				t.Error("scenario never filled the read cache")
			}
			if m.Hits == 0 {
				t.Error("scenario never served a cached read")
			}
			if m.Invalidations == 0 {
				t.Error("scenario never invalidated a cached record")
			}
			t.Logf("readcache fills=%d hits=%d invalidations=%d evictions=%d",
				m.Fills, m.Hits, m.Invalidations, m.Evictions)
			checkHistory(t, s, h)
		})
	}
}
