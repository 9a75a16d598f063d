//go:build !mutate

package epoch

// Mutation switch for the mutation gate (see
// internal/faster/mutation_gate_test.go). Normal builds compile with
// mutationsEnabled == false, so the mutated branch is dead code; the
// seeded-bug variant exists only under -tags mutate.
const mutationsEnabled = false

func mutSkipWaitRefresh() bool { return false }
