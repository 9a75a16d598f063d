#!/bin/sh
# Release gate: a superset of check.sh. Adds the mutation-tagged build,
# the linearizability scenario matrix, the mutation gate, fuzz smoke,
# and a per-package coverage floor. `make verify` delegates here.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# The mutate build tag compiles the seeded-bug variants in; both tag
# sets must stay buildable and vet-clean.
go vet -tags mutate ./...

go test ./...
go test -race ./internal/...

# Linearizability scenario matrix: seeded concurrent schedules across
# the store's hot paths (in-memory, read-only copy, fuzzy-region RMW,
# pending I/O, index resize, checkpoint/recover), history-checked under
# the race detector inside a bounded wall-clock budget.
go test -race -run 'TestLinearizable' -count=1 -timeout 300s ./internal/linearize/

# Mutation gate: prove the harness flags each seeded bug (torn 64-bit
# write, skipped epoch bump, double-applied RMW) with a minimized
# counterexample. Runs WITHOUT -race: the seeded bugs are value-level
# concurrency faults expressed through atomics, so the race detector is
# structurally blind to them — the history checker must catch them, and
# race-detector scheduling would only narrow the windows it needs.
go test -tags mutate -run 'TestMutationGate' -count=1 -v -timeout 600s ./internal/faster/

# Fuzz smoke: a few seconds per codec and checkpoint-parser target beyond the committed seed
# corpora (the corpora themselves already ran as regressions above).
go test -fuzz FuzzReadCommand -fuzztime 5s -run '^$' ./internal/resp/
go test -fuzz FuzzReadReply -fuzztime 5s -run '^$' ./internal/resp/
go test -fuzz FuzzVarLenFraming -fuzztime 5s -run '^$' ./internal/faster/
go test -fuzz FuzzCheckpointFiles -fuzztime 5s -run '^$' ./internal/faster/

# Per-package coverage floor: fail if a package regresses below the
# recorded baseline (scripts/coverage_baseline.txt).
while read -r pkg floor; do
    case "$pkg" in '' | '#'*) continue ;; esac
    out=$(go test -cover -count=1 "$pkg")
    cov=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')
    printf 'coverage %-28s %6s%%  (floor %s%%)\n' "$pkg" "$cov" "$floor"
    awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c + 0 >= f + 0) }' || {
        echo "FAIL: $pkg coverage $cov% is below the recorded baseline $floor%" >&2
        exit 1
    }
done <scripts/coverage_baseline.txt

echo "verify: all gates green"
