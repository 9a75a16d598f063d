GO ?= go

.PHONY: build test race torture soak linearize mutation-gate fuzz check verify bench bench-paper bench-openloop bench-shard bench-cache fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# Seeded crash/torn-write torture matrix (fixed seeds, 100 crash points by
# default) under the race detector. Scale with FASTER_TORTURE_POINTS=N.
torture:
	FASTER_TORTURE_POINTS=$${FASTER_TORTURE_POINTS:-100} \
		$(GO) test -race -run TestCrashRecoveryTorture -count=1 ./internal/faster/

# Seeded server chaos soak: overload shedding, read-only degradation, and
# graceful drain against the RESP front-end under the race detector, with
# goroutine-leak assertions.
soak:
	$(GO) test -race -run TestServerChaosSoak -count=1 -v ./internal/server/

# Linearizability scenario matrix: seeded concurrent schedules across the
# store's hot paths (in-memory, read-only copy, fuzzy-region RMW, pending
# I/O, index resize, checkpoint/recover), history-checked under the race
# detector inside the wall-clock budget below.
linearize:
	$(GO) test -race -run 'TestLinearizable' -count=1 -v -timeout 300s ./internal/linearize/

# Mutation gate: compile the seeded bugs in (-tags mutate) and prove the
# linearizability harness flags each one with a minimized counterexample.
# Runs WITHOUT -race: the seeded bugs are value-level concurrency faults
# expressed through atomics, invisible to the race detector by design.
mutation-gate:
	$(GO) test -tags mutate -run 'TestMutationGate' -count=1 -v -timeout 600s ./internal/faster/

# Short coverage-guided fuzz of the wire codecs and the checkpoint file
# parsers past the committed seed corpora. Crashers land in testdata/fuzz/
# and replay as regressions.
fuzz:
	$(GO) test -fuzz FuzzReadCommand -fuzztime 30s -run '^$$' ./internal/resp/
	$(GO) test -fuzz FuzzReadReply -fuzztime 30s -run '^$$' ./internal/resp/
	$(GO) test -fuzz FuzzVarLenFraming -fuzztime 30s -run '^$$' ./internal/faster/
	$(GO) test -fuzz FuzzCheckpointFiles -fuzztime 30s -run '^$$' ./internal/faster/

check:
	./scripts/check.sh

verify:
	./scripts/verify.sh

# Hot-path micro-benchmarks (single-op vs batched, -cpu 1,4,16) with a
# machine-readable report: BENCH_05.json gets ns/op, ops/sec, allocs/op
# per scenario and the batched-vs-single speedup ratios.
bench:
	$(GO) test -run '^$$' -bench 'U64$$' -benchmem -cpu 1,4,16 -count=1 \
		./internal/faster/ | $(GO) run ./cmd/benchreport -out BENCH_05.json

# Compaction economics: bytes reclaimed and write amplification of a
# copy-forward pass, plus read throughput while compactions run in the
# background. BENCH_06.json carries the custom units in "extra".
bench-compact:
	$(GO) test -run '^$$' -bench 'Compaction$$' -benchmem -count=1 \
		./internal/faster/ | $(GO) run ./cmd/benchreport -out BENCH_06.json

# Open-loop SLO curves under device chaos: constant-arrival-rate RESP
# load over a larger-than-memory store, one no-chaos phase and one under
# 100ms periodic latency spikes. BENCH_07.json carries exact hot/cold
# p50/p99/p999 (coordinated-omission-safe: measured from scheduled
# arrival) plus the full shed accounting in "extra". -benchtime 1x: each
# phase is one fixed-length schedule, not an iteration loop.
bench-openloop:
	$(GO) test -run '^$$' -bench 'OpenLoopSLO' -benchtime 1x -count=1 \
		./internal/bench/ | $(GO) run ./cmd/benchreport -out BENCH_07.json

# Shard-scaling benchmarks: 64-op read and upsert windows at shards in
# {1,4,16} with a fixed TOTAL buffer budget (so shards win by overlapping
# per-shard io-pools/flushers, never by caching more). BENCH_08.json must
# show 16-shard cold-read throughput >= 2x single-shard at 16 procs.
bench-shard:
	$(GO) test -run '^$$' -bench 'ShardedBatch.*U64' -benchmem -cpu 16 -count=1 \
		./internal/bench/ | $(GO) run ./cmd/benchreport -out BENCH_08.json

# Read-cache zipfian sweep: 64-op zipf(0.99) read windows over a
# larger-than-memory keyspace on simulated flash (150us reads), with
# the record read cache sized to 1/8 and 1/16 of the keyspace, cache on
# vs off, at 1 and 16 shards. BENCH_09.json must show cache-on read
# throughput >= 2x cache-off at the 1/8 resident fraction.
bench-cache:
	$(GO) test -run '^$$' -bench 'CacheZipfReadU64' -benchmem -cpu 16 -count=1 \
		./internal/bench/ | $(GO) run ./cmd/benchreport -out BENCH_09.json

# The paper-figure experiment micro-benchmarks (see cmd/faster-bench for
# the full tables).
bench-paper:
	$(GO) test -bench=. -benchmem ./internal/bench/

fmt:
	gofmt -l -w .
