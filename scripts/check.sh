#!/bin/sh
# Full local gate: build, vet, tests, and the race detector over the
# library packages. This is exactly what CI should run; `make check`
# delegates here.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)" # every Go file is gofmt-formatted
go test ./...
go test -race ./internal/...

# Tier-1 on one and on eight processors: green on any core count.
for procs in 1 8; do
	GOMAXPROCS=$procs go test -count=1 ./...
done

# Epoch drain list under contention on one, two and eight processors,
# repeated: a full list must spill, never panic or wait on the caller.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -count=20 ./internal/epoch/
done

# Index resize under the race detector on one, two and eight processors,
# repeated: one published state per phase, so a thread late by a whole
# cycle can never claim the next cycle's chunks. The repeated grow run
# without the race detector is the hang guard.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -count=20 ./internal/index/
done
go test -run 'TestGrow' -count=300 -timeout 120s ./internal/index/

# The HybridLog under the race detector on one, two and eight processors,
# repeated: page turns, flushes and truncation all wait through the one
# epoch wait, whose refresh of the waiter's own guard is what lets them
# finish.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -count=20 ./internal/hlog/
done

# The cold-record fetch on one, two and eight processors, repeated under
# the race detector: one device read per miss (a second only for a record
# longer than the first-read span), and one read for the last record
# below a recovered tail that ends mid-page, in that incarnation and the
# next.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -run 'TestColdReadOneDeviceCall|TestColdReadLongRecord|TestColdReadAfterRecoverPartialPage' -count=20 ./internal/faster/
done

# The in-memory hit path on one, two and eight processors, repeated under
# the race detector: a chain head that holds the key unflagged serves Read
# and in-place RMW with no walk, and every other head (tombstoned,
# invalid, sealed, delta, another key's, read-only, cache-tagged, or an
# updater that declines) falls through to the walk with the same answer,
# Stats and record layout. A head below a truncation that passed records
# still in memory falls through too: the walk drops the dangling entry.
# The in-store ledger benchmark must keep compiling and running, and so
# must the page-turn rows: ingest through a small buffer, and a read cache
# that evicts.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -run 'TestHeadMatchFallThrough' -count=20 ./internal/faster/
done
go test -run '^$' -bench EmbeddedLedger -benchtime 1x ./internal/faster/
go test -run '^$' -bench 'Ingest|ReadCacheTurnover' -benchtime 1x ./internal/faster/

# The simulated SSD's delivery scheduler on one and on two processors,
# repeated under the race detector (due-time order, service slots, Close
# delivering in-flight I/O exactly once), and its non-Linux runtime-timer
# fallback must keep compiling.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -race -count=20 ./internal/device/
done
GOOS=darwin GOARCH=arm64 go vet ./internal/device/

# Arena lifetimes, without the race detector: the race build keeps arena
# memory on the Go heap, where a use after free goes unnoticed, while here
# it faults. Log.Close with flush writes still delayed or torn inside a
# device.Faulty, Store.Close with a session open, Grow retiring a table
# under readers' guards and unguarded walks, compaction's one pass over the
# prefix and its lookup liveness rule, the two crash torture matrices, the
# cold-record fetch into pooled session buffers, and the allocator's own
# huge-block tests (2 MiB-aligned trimmed mappings, Free rejecting a
# reslice or a double free against its registry, AnonHugePages rising),
# compaction's chunked cut (the device-space bound, a failure after the
# first chunk is cut, three passes from mid-page begin addresses) and an
# in-memory ring that fills up, on one and on two processors, repeated.
# The arena allocator's non-Linux and 32-bit Linux heap fallbacks must
# keep compiling, and so must its raw mmap/munmap/madvise calls on arm64,
# whose syscall numbers differ from amd64's.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -run 'TestCloseWaits|TestStoreCloseWaits|TestCloseRefusesOpenSessions|TestRetiredTableOutlivesGuards|TestReadersHoldGuardsAcrossGrow|TestWalkPinsRetiredTable|TestCheckpointDuringMetrics|TestMetricsUnderGuardDuringGrow|TestMetricsFromSessionDuringGrow|TestCompactReadsPrefixOnce|TestCompactLookupLiveness|TestCompactCrashTorture|TestCrashRecoveryTorture|TestColdReadOneDeviceCall|TestColdReadLongRecord|TestColdReadAfterRecoverPartialPage|TestAllocZeroed|TestHugeBlockBacked|TestFreeRejects|TestCompactBoundsDeviceSpace|TestCompactFailsAfterChunksCut|TestCompactThreePasses|TestInMemoryRingFullFailsWrites' -count=5 -timeout 600s ./internal/arena/ ./internal/hlog/ ./internal/index/ ./internal/faster/
done
GOOS=darwin GOARCH=arm64 go vet ./internal/arena/
GOOS=linux GOARCH=arm64 go vet ./internal/arena/
GOOS=linux GOARCH=386 go vet ./internal/arena/

# Compaction's chunked cut under the race detector, repeated: each chunk
# is cut only once its copies have flushed, while the pass goes on
# appending; and a ring over device.Null that fills up fails the write
# instead of evicting.
go test -race -run 'TestCompactBoundsDeviceSpace|TestCompactFailsAfterChunksCut|TestCompactThreePasses|TestInMemoryRingFullFailsWrites' -count=10 ./internal/faster/

# Compaction's flush wait refreshes its session's guard; without that a
# read-only shift racing the compaction hung this test.
go test -run 'TestLinearizableSharded$' -count=200 -timeout 300s ./internal/linearize/

# A batch record whose publish CAS lost is invalidated before anything
# can refresh the epoch and let its page flush; the race detector flags
# a flush copying the record while its invalid bit is set.
go test -race -run 'TestLinearizableSharded$' -count=100 -timeout 300s ./internal/linearize/

# The RESP front-end's one execution path on one and on two processors:
# windows, io-pool miss resolution and stamped serials depend on
# scheduling.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -count=1 ./internal/server/
done

# The benchmark is a module of its own (kvbench/, named by
# BENCHMARK.json): it must keep compiling and passing its own checks
# against internal/* as it stands, without being edited to follow.
# (-o /dev/null: a bare build would overwrite the tracked kvbench/kvbench.)
go build -C kvbench -o /dev/null ./...
go test -C kvbench ./...

# The paper-figure path end to end at toy scale: faster-bench's main, its
# environment header and every figure sweep (`make figures` runs them at
# the scales EXPERIMENTS.md reports).
go run ./cmd/faster-bench -fig all -keys 2000 -duration 20ms -threads 2 >/dev/null

# Crash/torn-write torture matrix: fixed seeds, 100 crash points, race
# detector on (the fault-domain hardening acceptance gate).
FASTER_TORTURE_POINTS=100 go test -race -run TestCrashRecoveryTorture -count=1 ./internal/faster/

# Server chaos soak: seeded overload/read-only/drain scenarios against
# the RESP front-end under the race detector, asserting zero leaked
# goroutines (the network fault-domain acceptance gate).
go test -race -run TestServerChaosSoak -count=1 ./internal/server/

# Linearizability scenario matrix: seeded concurrent schedules across
# the store's hot paths, history-checked under the race detector.
# Includes the compaction scenario (copy-forward + epoch-safe truncation
# racing reads, RMWs and pending I/O).
go test -race -run 'TestLinearizable' -count=1 -timeout 300s ./internal/linearize/

# Space-reclamation gate: compaction correctness (concurrent RMWs,
# recovery with Begin > 0, crash torture mid-compaction, bounded memory,
# copies that wrap the log buffer, asynchronous descents owning their
# values, a copy whose append fails) and the epoch-safe truncation
# ordering fixes, plus the one verified publish that compaction copies
# and RMWs completed from storage share (a cold RMW whose entry moves
# before it publishes), under the race detector on one and on two
# processors. A copy phase that appends while a scan pins the epoch
# hangs; the timeout turns that into a failure.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -race -run 'TestCompact|TestBackgroundCompaction|TestTruncate|TestColdRMWPublish' -count=1 -timeout 300s ./internal/faster/ ./internal/hlog/
done

# Exactly-once torture: 100 seeded crash/retry schedules against the
# durable session table (duplicate deliveries, lost acks, mid-run
# checkpoints, recovery) plus the flaky-network chaos client against the
# RESP front-end, and a stamped INCRBY shed with -TIMEOUT whose resend
# must apply once, all under the race detector. Zero double-applies and
# zero lost acknowledgements are the acceptance bar.
FASTER_EXACTLYONCE_SEEDS=100 go test -race -run 'TestExactlyOnceCrashRetryTorture|TestServerChaosSoak/exactlyonce|TestServerStampedTimeoutAppliesOnce' -count=1 -timeout 600s ./internal/faster/ ./internal/server/

# Session-table crash matrix and the checkpoint/compaction interleaving
# regression: kills after the generation's session table but before its
# meta, and before the manifest rename (and at the torn/missing-table
# points), must recover the previous generation's frontier exactly, and a
# checkpoint racing a compaction must never swallow the compacted prefix.
go test -race -run 'TestSerialTableCrashMatrix|TestSessionTableCheckpointRecover|TestCheckpointCompactRace|TestCheckpointPinsDeviceTruncation' -count=1 ./internal/faster/

# Stall-free pending-I/O gate: io-worker pool lifecycle (leak and drain
# assertions, deadline/queue-full sheds, a shed RMW that never applies
# after its read lands or its fuzzy deferral could re-run, seeded chaos
# soak) and the server-side stall detector (no session goroutine may
# block in device calls on the miss path, stamped windows included),
# under the race detector.
go test -race -run 'TestIOPool|TestIOPoolShedRMWNeverApplies|TestServerChaosSoak/stallfree' -count=1 -timeout 300s ./internal/faster/ ./internal/server/

# Miss-path contract on one and on two processors: the io-pool lifecycle,
# the completion-driven worker (no pass while a read is in flight, done
# exactly once; repeated, since it is a scheduling property), the final
# deadline shed in the store and on the wire (repeated: a shed that races
# its own continuation is a scheduling property too) and the
# heap-bytes-per-cold-read bound.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -run 'IOPool|IOWorker|ColdRead|Submit' -count=1 -timeout 300s ./internal/faster/
	GOMAXPROCS=$procs go test -race -run TestIOWorkerCompletionDriven -count=20 ./internal/faster/
	GOMAXPROCS=$procs go test -race -run TestIOPoolShedRMWNeverApplies -count=20 ./internal/faster/
	GOMAXPROCS=$procs go test -race -run TestServerStampedTimeoutAppliesOnce -count=20 ./internal/server/
done

# The one completion driver on one, two and eight processors, repeated
# under the race detector: flat and sharded CompletePending (exactly one
# result for one pending read across a non-blocking and a blocking call;
# a sleeper pins no epoch), the io-worker that makes no pass while a read
# is in flight, and the deadline-bounded wait.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -run 'TestCompletePending|TestIOWorkerCompletionDriven' -count=20 -timeout 300s ./internal/faster/
done

# The one retry path for device I/O on one and on two processors,
# repeated under the race detector: the HybridLog's attempt function
# retries every read and write it hands the device (page flushes, cold
# record and scan reads, the recovered tail's pad), classifies with
# device.Classify, and keeps every backoff timer where Close cancels it.
# Injected read and flush faults, the health ladder they drive, the
# pending read and scan retries that heal, and a closed ShardedSession.
for procs in 1 2; do
	GOMAXPROCS=$procs go test -race -run 'TestInjectedReadFaultsSurfaceAsErrors|TestStoreRecoversAfterTransientReadFaults|TestRMWFaultDoesNotLoseOtherUpdates|TestFlushFaultsRetryAndEvictionStaysSafe|TestWritePathLossFlipsStoreReadOnly|TestReadPathLossEscalatesToFailed|TestPendingReadRetriesHealTransientFaults|TestRebuildIndexSurvivesReadFaults|TestShardedSessionUseAfterClose' -count=20 -timeout 600s ./internal/faster/
done

# Open-loop SLO smoke: constant-arrival-rate load over a larger-than-
# memory store, no-chaos vs 100ms device latency spikes — hot (resident)
# p999 must ride through the chaos while cold misses slow, with exact
# shed accounting and the health ladder untouched. BenchmarkOpenLoopSLO
# in the same package prints the full curves.
go test -race -run TestOpenLoopSmoke -count=1 -timeout 300s ./internal/bench/

# Sharded-store gate: the sharded linearizability matrix (cross-shard
# histories, and the one exactly-once driver at 1 shard and 1 key, 1
# shard and 8 keys, and 4 shards, with duplicates misdirected to other
# keys), the per-shard crash torture (one shard dies and recovers while
# its siblings serve), the hash split's balance and tag coverage at 4
# and 16 shards, a cold CRDT RMW over an on-storage delta, and the
# cluster-aware RESP front-end (multi-shard fan-out windows, MGET/MSET,
# per-shard health isolation, session fencing, a re-delivered serial on
# another shard answering -STALE at 1 and 4 shards), all under the race
# detector.
go test -race -run 'TestLinearizableSharded|TestLinearizableExactlyOnce' -count=1 -timeout 300s ./internal/linearize/
go test -race -run 'TestShardedCrashTorture|TestShardedRoutingDeterministic|TestCRDTColdRMWOverDelta' -count=1 -timeout 300s ./internal/faster/
go test -race -run 'TestServerSharded' -count=1 ./internal/server/

# Read-cache gate: fill/hit/invalidation/eviction correctness, a fill
# whose index CAS lands after its page's restore walk, warm-cache
# checkpoint/crash recovery (tagged index entries must map back to hlog
# addresses), and the CLOCK simulator validation, under the race
# detector on one, two and eight processors, repeated: fills race the
# cache log's page turns and restore walks with no lock between them.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -run 'TestReadCache|TestCrashRecoveryWarmReadCache' -count=20 -timeout 600s ./internal/faster/
done
go test -race -run 'TestLinearizableReadCache' -count=20 -timeout 300s ./internal/linearize/

# Mutation-gate seeds: the torn, unsynced session table must be flagged
# by the dedup-aware linearize model, a dropped pending-I/O re-enqueue
# (acknowledged-but-lost RMW deferral) by the async-workload checker,
# and the two sharded seeds — a router consulting a stale pre-rehash
# shard map and a checkpoint skipping one shard's manifest fsync — by
# the sharded linearize + torture tier, and a writer that links its
# record behind a cached copy instead of republishing the index entry
# (stale read-cache serves) by the read-cache scenario, and an epoch wait
# that stops refreshing its own guard by a lone writer hanging as it wraps
# the log buffer, and a checkpoint that writes its meta without syncing the
# log's device by the sync spy (the rest of the gate runs via `make
# mutation-gate`).
go test -tags mutate -run 'TestMutationGateSkipSerialFsync|TestMutationGateDroppedReenqueue|TestMutationGateRouteStaleMap|TestMutationGateSkipShardFsync|TestMutationGateSkipCacheInvalidate|TestMutationGateSkipWaitRefresh|TestMutationGateSkipLogSync' -count=1 -timeout 300s ./internal/faster/

# Fuzz smoke over the wire codecs and the checkpoint file parsers: a few
# seconds per target beyond the committed seed corpora. `make fuzz` /
# `make verify` run longer.
go test -fuzz FuzzReadCommand -fuzztime 5s -run '^$' ./internal/resp/
go test -fuzz FuzzReadReply -fuzztime 5s -run '^$' ./internal/resp/
go test -fuzz FuzzVarLenFraming -fuzztime 5s -run '^$' ./internal/faster/
go test -fuzz FuzzCheckpointFiles -fuzztime 5s -run '^$' ./internal/faster/

# Allocation-regression gate: the uint64 fast paths (Read, Upsert,
# in-place RMW, ExecBatch) must stay at 0 allocs/op in steady state.
go test -run TestHotPathZeroAlloc -count=1 ./internal/faster/
