GO ?= go

.PHONY: build test race torture soak linearize mutation-gate fuzz check verify bench figures fmt

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

# The repository's benchmark (BENCHMARK.json): the kvbench workloads,
# built from this checkout.
bench:
	bash kvbench/run.sh

# The paper's figures (Figs 8-13, the tag ablation, the Redis-style and
# network comparisons and the §7.3 log bandwidth, then Figs 14-16) at the
# scales EXPERIMENTS.md reports. -buildvcs=true stamps the commit into the
# environment header faster-bench prints before its tables.
figures:
	$(GO) run -buildvcs=true ./cmd/faster-bench -fig all -keys 50000 -duration 1s -threads 4
	$(GO) run ./cmd/cachesim -keys 65536 -accesses 2000000

fmt:
	gofmt -l -w .
