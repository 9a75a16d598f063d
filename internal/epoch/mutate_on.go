//go:build mutate

package epoch

import (
	"fmt"
	"sync/atomic"
)

// Seeded-bug variant for the mutation gate: Wait stops refreshing the
// caller's guard. See internal/faster/mutation_gate_test.go.
const mutationsEnabled = true

var mutSkipRefresh atomic.Bool

func mutSkipWaitRefresh() bool { return mutSkipRefresh.Load() }

// EnableMutation turns on one seeded bug by name: "skip-wait-refresh"
// (Wait polls without refreshing the caller's guard, so a waiter pins the
// epoch whose trigger action it waits for — the self-deadlock class every
// page-turn, flush and drain wait must avoid).
func EnableMutation(name string) {
	switch name {
	case "skip-wait-refresh":
		mutSkipRefresh.Store(true)
	default:
		panic(fmt.Sprintf("epoch: unknown mutation %q", name))
	}
}

// DisableMutations turns every seeded bug off.
func DisableMutations() { mutSkipRefresh.Store(false) }
